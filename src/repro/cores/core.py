"""The core model: an in-order, blocking RV32IMA-style hart.

Each core drives one kernel coroutine.  The FSM has three states whose
durations are accounted separately because the energy model prices them
differently (paper Table II: the whole point of LRSCwait is converting
*active polling* cycles into *sleep* cycles):

* ``ACTIVE`` — executing compute instructions or issuing a request;
* ``STALLED`` — blocked on an ordinary memory response (short, bounded
  by the interconnect round trip plus bank queueing);
* ``SLEEPING`` — parked on a withheld LRwait/Mwait response; the core
  is clock-gated and produces zero traffic until woken.

Issue timing: every memory instruction costs one active cycle, after
which the request enters the network; the kernel resumes the cycle the
response arrives.  Compute commands run at IPC 1.
"""

from __future__ import annotations

from heapq import heappush
from typing import Generator, Optional

from ..engine.errors import KernelError, ProtocolViolation
from ..engine.events import PRIORITY_NORMAL
from ..engine.simulator import Simulator
from ..engine.stats import CoreStats
from ..interconnect.messages import (
    MemRequest, MemResponse, Op, Status, _req_ids)
from ..interconnect.network import Network
from ..arch.address_map import AddressMap
from .api import Compute, MemCmd, Retire
from .qnode import Qnode

#: FSM state labels.
IDLE, ACTIVE, STALLED, SLEEPING, FINISHED = (
    "idle", "active", "stalled", "sleeping", "finished")


class Core:
    """One simulated hart plus its Qnode."""

    def __init__(self, core_id: int, sim: Simulator, network: Network,
                 address_map: AddressMap, stats: CoreStats) -> None:
        self.core_id = core_id
        self.sim = sim
        self.network = network
        self.address_map = address_map
        self.stats = stats
        # The hub and tracer objects are stable for the simulator's
        # lifetime, so the hot paths below can cache them (one load +
        # branch when off), as they do the heap, its sequence counter
        # and the address decode of AddressMap.bank_of.
        self._telemetry = sim.telemetry
        self._tracer = sim.tracer
        self._heap = sim.heap
        self._seq = sim.seq
        self._word_bytes = address_map.word_bytes
        self._num_banks = address_map.num_banks
        self._memory_bytes = address_map.memory_bytes
        # The Qnode needs qnode_cycles - 1 extra cycles to process and
        # forward a WakeUpRequest (the first cycle overlaps the event
        # that triggered it, so the default of 1 adds nothing).
        qnode_delay = address_map.config.latency.qnode_cycles - 1
        if qnode_delay > 0:
            def send_wakeup(msg, _delay=qnode_delay):
                sim.schedule(_delay, network.send_wakeup, arg=msg)
        else:
            send_wakeup = network.send_wakeup
        self.qnode = Qnode(core_id, send_wakeup, self._send_stalled_wait)
        self.state = IDLE
        self._kernel: Optional[Generator] = None
        self._outstanding: Optional[MemRequest] = None
        self._wait_started = 0
        self.finish_cycle: Optional[int] = None
        network.register_core(core_id, self.deliver_response)
        network.register_qnode(core_id, self.qnode.on_successor_update)

    # -- kernel control -----------------------------------------------------

    def load(self, kernel: Generator) -> None:
        """Attach a kernel coroutine; call before the simulation starts."""
        if self._kernel is not None:
            raise KernelError(f"core {self.core_id} already has a kernel")
        self._kernel = kernel
        self._set_state(ACTIVE)

    def start(self) -> None:
        """Schedule the first instruction at the current cycle."""
        if self._kernel is None:
            return
        self.sim.schedule(0, self._advance, arg=None)

    @property
    def finished(self) -> bool:
        """True when the kernel ran to completion."""
        return self.state == FINISHED

    @property
    def blocked_description(self) -> Optional[str]:
        """Human-readable blockage info for deadlock reports."""
        if self.state in (STALLED, SLEEPING) and self._outstanding is not None:
            req = self._outstanding
            return (f"core {self.core_id} {self.state} on {req.op.value} "
                    f"@0x{req.addr:x} since cycle {self._wait_started}")
        return None

    # -- execution loop ---------------------------------------------------------

    def _advance(self, send_value) -> None:
        """Feed the kernel until it blocks on memory or time.

        A memory command is issued here: it spends the 1-cycle issue
        stage, after which :meth:`_send` injects the request.
        """
        assert self._kernel is not None
        while True:
            try:
                cmd = self._kernel.send(send_value)
            except StopIteration:
                self._finish()
                return
            except ProtocolViolation:
                raise
            except Exception as exc:  # surface kernel bugs with context
                raise KernelError(
                    f"kernel on core {self.core_id} raised "
                    f"{type(exc).__name__}: {exc}") from exc
            send_value = None
            # Memory commands dominate, so they are tested first.
            if isinstance(cmd, MemCmd):
                now = self.sim.now
                op = cmd.op
                # Positional build; the req_id is drawn here, as the
                # field's default factory would.
                req = MemRequest(op, self.core_id, cmd.addr, cmd.value,
                                 cmd.expected, next(_req_ids), now)
                stats = self.stats
                stats.active_cycles += 1
                stats.instructions += 1
                requests = stats.requests
                requests[op.mnemonic] = requests.get(op.mnemonic, 0) + 1
                self._outstanding = req
                state = SLEEPING if op.is_wait else STALLED
                if self._tracer.enabled or \
                        self._telemetry.on_core_state is not None:
                    self._set_state(state)
                else:
                    self.state = state
                heappush(self._heap, [now + 1, PRIORITY_NORMAL,
                                      next(self._seq), self._send, req])
                return
            if isinstance(cmd, Compute):
                cycles = cmd.cycles
                if cycles <= 0:
                    continue
                stats = self.stats
                stats.active_cycles += cycles
                stats.instructions += cycles
                # The kernel resumes with no value; ``cycles > 0``, so
                # the entry needs none of Simulator.schedule's checks.
                heappush(self._heap, [self.sim.now + cycles, PRIORITY_NORMAL,
                                      next(self._seq), self._advance, None])
                return
            if isinstance(cmd, Retire):
                self.stats.ops_completed += cmd.count
                continue
            raise KernelError(
                f"core {self.core_id}: kernel yielded {cmd!r}, expected "
                f"Compute/Retire/MemCmd")

    def _finish(self) -> None:
        self._set_state(FINISHED)
        self.finish_cycle = self.sim.now

    def _set_state(self, state: str) -> None:
        """State transition with tracing/telemetry hooks (VCD, timelines).

        The request path calls it only while an enabled tracer or a
        ``core_state`` subscriber can see the change; otherwise it
        assigns :attr:`state` directly.
        """
        if self.state != state:
            self.state = state
            if self._tracer.enabled:
                self._tracer.log(self.sim.now, f"core{self.core_id}",
                                 "core_state", state)
            cb = self._telemetry.on_core_state
            if cb is not None:
                cb(self.sim.now, self.core_id, state)

    # -- memory issue ----------------------------------------------------------------

    def _send(self, req: MemRequest) -> None:
        """The issue cycle is over: the request leaves the core."""
        self._wait_started = self.sim.now
        addr = req.addr
        word_bytes = self._word_bytes
        # AddressMap.bank_of, inline: check() raises the decode error.
        if addr % word_bytes or not 0 <= addr < self._memory_bytes:
            self.address_map.check(addr)
        bank_id = addr // word_bytes % self._num_banks
        op = req.op
        if op.is_wait:
            if not self.qnode.try_issue_wait(req, bank_id):
                return  # stalled inside the Qnode; released later
        elif op is Op.SCWAIT:
            # The SCwait passes the Qnode on its way out (Fig. 2 / 6).
            self.network.send_request(req, bank_id)
            self.qnode.on_scwait_pass()
            return
        self.network.send_request(req, bank_id)

    def _send_stalled_wait(self, req: MemRequest, bank_id: int) -> None:
        """Qnode callback: a buffered wait op finally enters the network."""
        self.network.send_request(req, bank_id)

    # -- response delivery ----------------------------------------------------------------

    def deliver_response(self, resp: MemResponse) -> None:
        """Network delivery of the response to the outstanding request."""
        if self._outstanding is None or resp.core_id != self.core_id:
            raise KernelError(
                f"core {self.core_id}: unexpected response {resp}")
        now = self.sim.now
        waited = now - self._wait_started
        stats = self.stats
        if self.state == SLEEPING:
            stats.sleep_cycles += waited
        else:
            stats.stalled_cycles += waited
        cb = self._telemetry.on_response
        if cb is not None:
            cb(now, self.core_id, resp, waited)
        self._outstanding = None
        if self._tracer.enabled or self._telemetry.on_core_state is not None:
            self._set_state(ACTIVE)
        else:
            self.state = ACTIVE
        op = resp.op
        # Count the outcome; the Qnode filters only wait-family
        # responses (it ignores every other op).
        if op.is_sc:
            if resp.status is Status.OK:
                stats.sc_successes += 1
            else:
                stats.sc_failures += 1
            if op is Op.SCWAIT:
                self.qnode.on_response(resp)
        elif op.is_wait:
            if resp.status is Status.QUEUE_FULL:
                stats.wait_rejections += 1
            self.qnode.on_response(resp)
        self._advance(resp)
