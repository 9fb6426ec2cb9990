"""The hierarchical interconnect model.

The network delivers messages between cores (and their Qnodes) and bank
controllers with a fixed one-way latency per distance class (local tile
/ same group / remote group), mirroring MemPool's hierarchical crossbar.

Two properties matter for correctness and fidelity:

* **Per-channel FIFO.** All messages between a given (core, bank) pair
  experience identical latency and the event queue preserves insertion
  order for same-cycle events, so delivery order equals send order.
  Colibri's correctness argument (paper §IV-A: a ``WakeUpRequest``
  following an SCwait through the same path cannot overtake it) relies
  on exactly this AXI-like ordering, which the test-suite asserts.
* **Contention lives at the bank port, not in the links.** MemPool's
  crossbars are non-blocking; the serialization the paper measures
  happens where requests converge on a single bank.  The request path
  therefore has constant latency here, and queueing is modelled by the
  bank port scheduler (:mod:`repro.memory.controller`) — with one
  exception: requests from outside a bank's tile first pass the tile's
  shared ingress port (:class:`ThrottledPort`).  A saturated port
  delays them, and every other remote request to that tile, in FIFO
  order; this is the stage where atomics' retry storms interfere with
  unrelated traffic (Fig. 5).

Every delivery is counted in :class:`~repro.engine.stats.NetworkStats`
(message kind + hops), which feeds the Table II energy model: the
polling/retry traffic of LRSC-based schemes shows up directly in these
counters.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from ..arch.topology import Topology
from ..engine.events import PRIORITY_NORMAL
from ..engine.simulator import Simulator
from ..engine.stats import NetworkStats
from .messages import MemRequest, MemResponse, SuccessorUpdate, WakeUpRequest


class ThrottledPort:
    """A shared port accepting ``per_cycle`` messages per cycle.

    Arrivals beyond the budget of a cycle spill into following cycles
    in FIFO order; the returned slot is the cycle the message actually
    passes the port.  This is a busy-until token scheme, cheap enough
    to sit on every delivery.
    """

    def __init__(self, per_cycle: int) -> None:
        self.per_cycle = per_cycle
        self._cycle = -1
        self._used = 0

    def next_slot(self, arrival: int) -> int:
        """FIFO slot assignment for a message arriving at ``arrival``."""
        if arrival > self._cycle:
            self._cycle = arrival
            self._used = 1
            return arrival
        if self._used < self.per_cycle:
            self._used += 1
            return self._cycle
        self._cycle += 1
        self._used = 1
        return self._cycle


class Network:
    """Latency-accurate message delivery between cores and banks."""

    def __init__(self, sim: Simulator, topology: Topology,
                 stats: NetworkStats) -> None:
        self.sim = sim
        self.topology = topology
        self.stats = stats
        # Hot-path aliases: the simulator's heap and sequence counter
        # (direct pushes) and the topology's memoized route table.
        self._heap = sim.heap
        self._seq = sim.seq
        self._routes = topology.routes
        self._cores_per_tile = topology.config.cores_per_tile
        self._banks_per_tile = topology.config.banks_per_tile
        self._num_tiles = topology.config.num_tiles
        # Stable hub object: cached for the one-load-one-branch
        # telemetry gate on every send (see repro.telemetry.hub).
        self._telemetry = sim.telemetry
        config = topology.config
        #: Shared remote-request ingress, one per tile (see
        #: LatencyConfig.tile_ingress_per_cycle).
        self._tile_ingress = [
            ThrottledPort(config.latency.tile_ingress_per_cycle)
            for _ in range(config.num_tiles)
        ]
        #: bank_id -> callable(MemRequest | WakeUpRequest)
        self._bank_handlers: dict = {}
        #: core_id -> callable(MemResponse)
        self._core_handlers: dict = {}
        #: core_id -> callable(SuccessorUpdate)  (the Qnode input port)
        self._qnode_handlers: dict = {}

    # -- endpoint registration ------------------------------------------------

    def register_bank(self, bank_id: int,
                      handler: Callable[[object], None]) -> None:
        """Attach the request-input handler of a bank controller."""
        self._bank_handlers[bank_id] = handler

    def register_core(self, core_id: int,
                      handler: Callable[[MemResponse], None]) -> None:
        """Attach the response-input handler of a core."""
        self._core_handlers[core_id] = handler

    def register_qnode(self, core_id: int,
                       handler: Callable[[SuccessorUpdate], None]) -> None:
        """Attach the SuccessorUpdate input of a core's Qnode."""
        self._qnode_handlers[core_id] = handler

    # -- sends -------------------------------------------------------------------

    def send_request(self, req: MemRequest, bank_id: int) -> None:
        """Core → bank: deliver a memory request after the route latency
        and, from outside the bank's tile, the tile's ingress port.

        One flat read of the topology's memoized route table serves hop
        accounting and delivery alike; a miss goes through
        :meth:`Topology.route`, which fills the entry, so a
        :meth:`~repro.arch.topology.Topology._compute_route` override
        holds.
        """
        core_id = req.core_id
        bank_tile = bank_id // self._banks_per_tile
        route = self._routes[core_id // self._cores_per_tile
                             * self._num_tiles + bank_tile]
        if route is None:
            route = self.topology.route(core_id, bank_id)
        cls, latency, hops = route
        kind = req.op.mnemonic
        stats = self.stats
        messages = stats.messages
        messages[kind] = messages.get(kind, 0) + 1
        stats.hops += hops
        now = self.sim.now
        cb = self._telemetry.on_message
        if cb is not None:
            cb(now, kind, cls, latency, hops)
        delivery = now + latency
        if cls != "local":
            slot = self._tile_ingress[bank_tile].next_slot(delivery)
            stats.ingress_wait_cycles += slot - delivery
            delivery = slot
        # Route latencies are >= 1 (LatencyConfig.validate) and a port
        # slot is never before its arrival, so the entry lies in the
        # future and needs none of Simulator.schedule_at's checks.
        heappush(self._heap, [delivery, PRIORITY_NORMAL, next(self._seq),
                              self._bank_handlers[bank_id], req])

    def send_response(self, resp: MemResponse, bank_id: int) -> None:
        """Bank → core: deliver a response after the route latency."""
        core_id = resp.core_id
        route = self._routes[core_id // self._cores_per_tile
                             * self._num_tiles
                             + bank_id // self._banks_per_tile]
        if route is None:
            route = self.topology.route(core_id, bank_id)
        cls, latency, hops = route
        kind = resp.op.resp_mnemonic
        stats = self.stats
        messages = stats.messages
        messages[kind] = messages.get(kind, 0) + 1
        stats.hops += hops
        now = self.sim.now
        cb = self._telemetry.on_message
        if cb is not None:
            cb(now, kind, cls, latency, hops)
        # Route latencies are >= 1 (LatencyConfig.validate), so the
        # entry needs none of Simulator.schedule's checks.
        heappush(self._heap, [now + latency, PRIORITY_NORMAL, next(self._seq),
                              self._core_handlers[core_id], resp])

    def send_successor_update(self, msg: SuccessorUpdate) -> None:
        """Bank → Qnode: Colibri enqueue-link message."""
        cls, latency, hops = self.topology.route(msg.prev_core, msg.bank_id)
        stats = self.stats
        messages = stats.messages
        messages["successor_update"] = \
            messages.get("successor_update", 0) + 1
        stats.hops += hops
        cb = self._telemetry.on_message
        if cb is not None:
            cb(self.sim.now, "successor_update", cls, latency, hops)
        self.sim.schedule(latency, self._qnode_handlers[msg.prev_core],
                          arg=msg)

    def send_wakeup(self, msg: WakeUpRequest) -> None:
        """Qnode → bank: Colibri dequeue/wake message.

        WakeUpRequests travel the request path, so they share the tile
        ingress with ordinary requests (and stay FIFO behind the same
        core's SCwait, which was sent earlier at equal latency).
        """
        cls, latency, hops = self.topology.route(msg.from_core, msg.bank_id)
        stats = self.stats
        messages = stats.messages
        messages["wakeup_request"] = messages.get("wakeup_request", 0) + 1
        stats.hops += hops
        cb = self._telemetry.on_message
        if cb is not None:
            cb(self.sim.now, "wakeup_request", cls, latency, hops)
        delivery = self.sim.now + latency
        if cls != "local":
            tile = self.topology.tile_of_bank(msg.bank_id)
            slot = self._tile_ingress[tile].next_slot(delivery)
            stats.ingress_wait_cycles += slot - delivery
            delivery = slot
        self.sim.schedule_at(delivery, self._bank_handlers[msg.bank_id],
                             arg=msg)
