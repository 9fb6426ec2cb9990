"""Centralized LRSCwait: a reservation queue per bank (paper §III-A/B).

Each bank carries a queue-like structure of capacity ``q``.  An LRwait
whose address already has waiters parks behind them; the controller
**withholds the response** until the requester reaches the head of its
address queue, at which point it is served the current memory value and
a reservation is placed.  Because only the head ever holds a live
reservation, its SCwait is guaranteed to find the reservation valid
unless an *interfering plain store* cleared it — failing SCs caused by
contention between LRSC pairs are eliminated by construction.

``q`` trades hardware for performance (§III-B): an LRwait arriving when
all ``q`` slots are taken fails immediately with
:data:`~repro.interconnect.messages.Status.QUEUE_FULL` and software must
retry.  ``q = num_cores`` is LRSCwait\\ :sub:`ideal`.

Mwait (§III-C) reuses the same queue: a served Mwait whose expected
value already mismatches memory completes immediately; otherwise it
monitors the address and is answered by the next committed store.
Served-and-monitoring Mwaits cascade: one store can release a chain of
waiters whose expectations now mismatch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..engine.errors import ProtocolViolation
from ..interconnect.messages import (
    LRWAIT, OK, QUEUE_FULL, SC_FAIL, MemRequest, Op)
from .adapter import AtomicAdapter


@dataclass
class _Waiter:
    """One queue entry: a parked LRwait or Mwait."""

    req: MemRequest
    #: True once the head response was sent (LRwait) / monitoring began.
    served: bool = False
    #: Valid reservation (head only); cleared by interfering stores.
    reservation_valid: bool = False


class LrscWaitAdapter(AtomicAdapter):
    """Reservation-queue adapter: LRSCwait_q, with q=None meaning ideal."""

    OP_METHODS = {Op.LRWAIT: "_handle_wait", Op.MWAIT: "_handle_wait",
                  Op.SCWAIT: "_handle_scwait"}

    def __init__(self, controller, queue_slots: Optional[int],
                 strict: bool = True) -> None:
        super().__init__(controller)
        #: Total entries allowed across all addresses of this bank;
        #: ``None`` = unbounded (ideal: one slot per core suffices).
        self.queue_slots = queue_slots
        self.strict = strict
        self._queues: dict = {}  # addr -> deque[_Waiter]
        #: ``(core_id, addr)`` of every queued waiter (strict mode's
        #: duplicate check), kept in step with the queues.
        self._waiting: set = set()
        self._occupancy = 0

    # -- protocol ---------------------------------------------------------------

    def _handle_wait(self, req: MemRequest) -> None:
        if self.queue_slots is not None and self._occupancy >= self.queue_slots:
            self.ctrl.respond(req, 0, QUEUE_FULL)
            return
        if self.strict:
            key = (req.core_id, req.addr)
            if key in self._waiting:
                raise ProtocolViolation(
                    f"core {req.core_id} has two outstanding wait ops on "
                    f"0x{req.addr:x} (violates §III-b single-LRwait rule)")
            self._waiting.add(key)
        queue = self._queues.setdefault(req.addr, deque())
        queue.append(_Waiter(req))
        self._occupancy += 1
        cb = self.ctrl.telemetry.on_queue_depth
        if cb is not None:
            cb(self.ctrl.sim.now, self.ctrl.bank_id, self._occupancy)
        if len(queue) == 1:
            self._serve_head(req.addr)

    def _serve_head(self, addr: int) -> None:
        """Serve queue heads at ``addr`` until one actually has to wait.

        LRwait heads always complete the serve (response + reservation).
        Mwait heads whose expectation already fails complete immediately
        and the next entry is examined — the cascade of §III-C.
        """
        queue = self._queues.get(addr)
        while queue:
            head = queue[0]
            value = self.ctrl.read(addr)
            if head.req.op is LRWAIT:
                head.served = True
                head.reservation_valid = True
                self.ctrl.stats.reservations_placed += 1
                self.ctrl.respond(head.req, value)
                return
            # Mwait: complete now if the world already changed.
            if head.req.expected is None or value != head.req.expected:
                self._pop(addr)
                self.ctrl.respond(head.req, value)
                queue = self._queues.get(addr)
                continue
            head.served = True
            head.reservation_valid = True
            self.ctrl.stats.reservations_placed += 1
            return

    def _handle_scwait(self, req: MemRequest) -> None:
        queue = self._queues.get(req.addr)
        head = queue[0] if queue else None
        legal = (head is not None and head.served
                 and head.req.op is LRWAIT
                 and head.req.core_id == req.core_id)
        if not legal:
            if self.strict:
                raise ProtocolViolation(
                    f"SCwait from core {req.core_id} to 0x{req.addr:x} "
                    f"without being the served queue head")
            self.ctrl.respond(req, 1, SC_FAIL)
            return
        assert head is not None
        valid = head.reservation_valid
        self._pop(req.addr)
        if valid:
            self.ctrl.write(req.addr, req.value)
            self.ctrl.respond(req, 0, OK)
            # The SCwait's own store wakes monitoring Mwaits but must
            # not clear the (already popped) writer's state.
            self.on_write(req.addr)
        else:
            self.ctrl.respond(req, 1, SC_FAIL)
        self._serve_head(req.addr)

    def _pop(self, addr: int) -> None:
        queue = self._queues[addr]
        self._waiting.discard((queue.popleft().req.core_id, addr))
        self._occupancy -= 1
        cb = self.ctrl.telemetry.on_queue_depth
        if cb is not None:
            cb(self.ctrl.sim.now, self.ctrl.bank_id, self._occupancy)
        if not queue:
            del self._queues[addr]

    # -- write monitoring -----------------------------------------------------------

    def on_write(self, addr: int) -> None:
        """A committed store: clear the head LRwait reservation or wake
        a monitoring Mwait chain at ``addr``."""
        queue = self._queues.get(addr)
        if not queue:
            return
        head = queue[0]
        if not head.served:
            return
        if head.req.op is LRWAIT:
            if head.reservation_valid:
                head.reservation_valid = False
                self.ctrl.stats.reservations_invalidated += 1
            return
        # Monitoring Mwait: answer it with the fresh value, then let
        # _serve_head cascade through any further waiters.
        value = self.ctrl.read(addr)
        self._pop(addr)
        self.ctrl.respond(head.req, value)
        self._serve_head(addr)

    # -- introspection ----------------------------------------------------------------

    def pending_waiters(self) -> int:
        """Entries currently parked in this bank's queues."""
        return self._occupancy

    def queue_depth(self, addr: int) -> int:
        """Waiters parked on one address (tests)."""
        queue = self._queues.get(addr)
        return len(queue) if queue else 0
