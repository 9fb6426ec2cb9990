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
  bank port scheduler (:mod:`repro.memory.controller`).

Every delivery is counted in :class:`~repro.engine.stats.NetworkStats`
(message kind + hops), which feeds the Table II energy model: the
polling/retry traffic of LRSC-based schemes shows up directly in these
counters.
"""

from __future__ import annotations

from typing import Callable

from ..arch.topology import Topology
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

    def reset(self) -> None:
        """Forget the token window (warm machine reuse)."""
        self._cycle = -1
        self._used = 0


class Network:
    """Latency-accurate message delivery between cores and banks."""

    def __init__(self, sim: Simulator, topology: Topology,
                 stats: NetworkStats) -> None:
        self.sim = sim
        self.topology = topology
        self.stats = stats
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

    def reset(self) -> None:
        """Reset the ingress throttles (warm machine reuse).

        Handler registrations are construction-time wiring and stay;
        message counters live in :class:`NetworkStats`, reset separately.
        """
        for port in self._tile_ingress:
            port.reset()

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

    def _ingress_slot(self, bank_id: int, arrival: int) -> int:
        """Pass the target tile's shared ingress port (remote requests).

        Requests from outside the bank's tile queue at the tile's
        shared ingress; a saturated port delays them — and every other
        remote request to that tile — in FIFO order.  This models the
        interconnect stage where atomics' retry storms interfere with
        unrelated traffic (Fig. 5).  Local requests never call this.
        """
        tile = self.topology.tile_of_bank(bank_id)
        slot = self._tile_ingress[tile].next_slot(arrival)
        self.stats.ingress_wait_cycles += slot - arrival
        return slot

    def send_request(self, req: MemRequest, bank_id: int) -> None:
        """Core → bank: deliver a memory request after the route latency.

        One memoized route lookup serves hop accounting and delivery
        alike (see :meth:`~repro.arch.topology.Topology.route`).
        """
        cls, latency, hops = self.topology.route(req.core_id, bank_id)
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
            delivery = self._ingress_slot(bank_id, delivery)
        self.sim.schedule_at(delivery, self._bank_handlers[bank_id], arg=req)

    def send_response(self, resp: MemResponse, bank_id: int) -> None:
        """Bank → core: deliver a response after the route latency."""
        cls, latency, hops = self.topology.route(resp.core_id, bank_id)
        kind = resp.op.resp_mnemonic
        stats = self.stats
        messages = stats.messages
        messages[kind] = messages.get(kind, 0) + 1
        stats.hops += hops
        cb = self._telemetry.on_message
        if cb is not None:
            cb(self.sim.now, kind, cls, latency, hops)
        self.sim.schedule(latency, self._core_handlers[resp.core_id],
                          arg=resp)

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
            delivery = self._ingress_slot(msg.bank_id, delivery)
        self.sim.schedule_at(delivery, self._bank_handlers[msg.bank_id],
                             arg=msg)
