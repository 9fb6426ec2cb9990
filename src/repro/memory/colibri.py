"""Colibri: the distributed reservation queue (paper §IV).

Instead of a per-bank queue sized for every core, each bank controller
keeps only ``num_addresses`` **head/tail register pairs** and every core
contributes one hardware **Qnode** (see
:class:`~repro.cores.qnode.Qnode`).  The waiting order is a linked list
threaded through the Qnodes:

* an **LRwait/Mwait** hitting a tracked address swaps the tail register
  to the newcomer and sends a :class:`SuccessorUpdate` to the previous
  tail's Qnode (enqueue, Fig. 2 steps 3-4);
* an **SCwait** leaving a core passes its Qnode, which — once the
  successor link is known — sends a :class:`WakeUpRequest` back to the
  controller; the controller promotes the successor to head and finally
  releases its withheld LRwait response (dequeue, Fig. 2 steps 5-7).

The controller-side state machine below is deliberately explicit about
the two races the paper argues correct in §IV-A:

1. *SuccessorUpdate still in flight when the head's SCwait arrives*:
   the controller sees ``tail != head``, so it only **temporarily
   invalidates the head** and waits for the bounced WakeUpRequest; the
   response carries ``successor_pending=True`` so the Qnode knows a
   link will arrive.
2. *Queue touched while links look broken*: the only writers of the
   head register are an LRwait allocating an empty queue and a
   WakeUpRequest — both of which re-establish consistency, matching the
   paper's argument verbatim.

Per-channel FIFO delivery (``Network``) guarantees a WakeUpRequest sent
after an SCwait from the same core arrives after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..engine.errors import ProtocolViolation, SimulationError
from ..interconnect.messages import (
    LRWAIT,
    MWAIT,
    OK,
    QUEUE_FULL,
    SC_FAIL,
    MemRequest,
    Op,
    Status,
    SuccessorUpdate,
    WakeUpRequest,
)
from .adapter import AtomicAdapter


@dataclass
class _ColibriQueue:
    """One head/tail register pair tracking a single address."""

    addr: int
    head: int
    tail: int
    #: False between the head's dequeue and the WakeUpRequest arrival.
    head_valid: bool = True
    #: The head's live reservation; cleared by interfering stores.
    reservation_valid: bool = False
    #: Op kind of the currently served head (LRWAIT or MWAIT).
    head_op: Optional[Op] = None
    #: Withheld requests of cores linked in this queue, by core id.
    pending: dict = field(default_factory=dict)


class ColibriAdapter(AtomicAdapter):
    """Distributed-queue LRwait controller with Mwait support."""

    OP_METHODS = {Op.LRWAIT: "_wait_op", Op.MWAIT: "_wait_op",
                  Op.SCWAIT: "_scwait_op"}

    def __init__(self, controller, num_addresses: int = 4,
                 strict: bool = True) -> None:
        super().__init__(controller)
        self.num_addresses = num_addresses
        self.strict = strict
        self._queues: dict = {}  # addr -> _ColibriQueue
        self._last_depth = 0

    def _note_depth(self) -> None:
        """Report waiter-count changes to the telemetry queue-depth hook.

        Colibri's waiters are scattered over per-address ``pending``
        maps and monitoring Mwait heads, so the count is recomputed via
        :meth:`pending_waiters` — only when a probe is subscribed, and
        only after operations that can change it.
        """
        cb = self.ctrl.telemetry.on_queue_depth
        if cb is not None:
            depth = self.pending_waiters()
            if depth != self._last_depth:
                self._last_depth = depth
                cb(self.ctrl.sim.now, self.ctrl.bank_id, depth)

    # -- enqueue: LRwait / Mwait ------------------------------------------------

    def _wait_op(self, req: MemRequest) -> None:
        self._handle_wait(req)
        self._note_depth()

    def _scwait_op(self, req: MemRequest) -> None:
        self._handle_scwait(req)
        self._note_depth()

    def _handle_wait(self, req: MemRequest) -> None:
        queue = self._queues.get(req.addr)
        if queue is not None:
            if self.strict and (req.core_id in queue.pending
                                or (queue.head == req.core_id
                                    and queue.head_valid)):
                raise ProtocolViolation(
                    f"core {req.core_id} enqueued twice on 0x{req.addr:x}")
            previous_tail = queue.tail
            queue.tail = req.core_id
            queue.pending[req.core_id] = req
            self.ctrl.send_successor_update(SuccessorUpdate(
                bank_id=self.ctrl.bank_id, addr=req.addr,
                prev_core=previous_tail, successor=req.core_id))
            return
        if len(self._queues) >= self.num_addresses:
            self.ctrl.respond(req, 0, QUEUE_FULL)
            return
        queue = _ColibriQueue(addr=req.addr, head=req.core_id,
                              tail=req.core_id)
        self._queues[req.addr] = queue
        cb = self.ctrl.telemetry.on_protocol
        if cb is not None:
            cb(self.ctrl.sim.now, self.ctrl.bank_id, "colibri_alloc",
               f"queue @0x{req.addr:x} head=core {req.core_id}")
        self._serve_head(queue, req)

    def _serve_head(self, queue: _ColibriQueue, req: MemRequest) -> None:
        """Serve ``req`` (guaranteed to be the queue head) the current value."""
        value = self.ctrl.read(queue.addr)
        if req.op is LRWAIT:
            queue.reservation_valid = True
            queue.head_op = LRWAIT
            self.ctrl.stats.reservations_placed += 1
            self.ctrl.respond(req, value)
            return
        # Mwait: completes immediately when memory already moved on.
        if req.expected is None or value != req.expected:
            self._respond_and_dequeue(queue, req, value)
            return
        queue.reservation_valid = True
        queue.head_op = MWAIT
        self.ctrl.stats.reservations_placed += 1

    # -- dequeue: SCwait ------------------------------------------------------------

    def _handle_scwait(self, req: MemRequest) -> None:
        queue = self._queues.get(req.addr)
        legal = (queue is not None and queue.head_valid
                 and queue.head == req.core_id
                 and queue.head_op is LRWAIT)
        if not legal:
            if self.strict:
                raise ProtocolViolation(
                    f"SCwait from core {req.core_id} to 0x{req.addr:x} "
                    f"without holding the queue head")
            self.ctrl.respond(req, 1, SC_FAIL)
            return
        assert queue is not None
        if queue.reservation_valid:
            queue.reservation_valid = False
            self.ctrl.write(req.addr, req.value)
            # Order matters: the write must precede on_write so an Mwait
            # queue on the same address (different queue slot is
            # impossible — same addr, same queue) is untouched; other
            # adapters' reservations do not exist here.
            self._respond_and_dequeue(queue, req, value=0, status=OK)
        else:
            self._respond_and_dequeue(queue, req, value=1,
                                      status=SC_FAIL)

    def _respond_and_dequeue(self, queue: _ColibriQueue, req: MemRequest,
                             value: int, status: Status = Status.OK) -> None:
        """Answer the head and either free the queue or await the WakeUp.

        ``head == tail`` means nobody enqueued behind the head: the
        queue registers are freed right here (Fig. 2's trivial dequeue).
        Otherwise a successor exists (or its SuccessorUpdate is in
        flight), so the head register is only invalidated and the
        response tells the Qnode a successor is pending.
        """
        if queue.tail == req.core_id:
            if queue.pending:
                raise SimulationError(
                    f"freeing colibri queue 0x{queue.addr:x} with "
                    f"{len(queue.pending)} pending waiters")
            del self._queues[queue.addr]
            cb = self.ctrl.telemetry.on_protocol
            if cb is not None:
                cb(self.ctrl.sim.now, self.ctrl.bank_id, "colibri_free",
                   f"queue @0x{queue.addr:x}")
            self.ctrl.respond(req, value, status, False)
        else:
            queue.head_valid = False
            queue.head_op = None
            self.ctrl.respond(req, value, status, True)

    # -- WakeUpRequest: promote the successor ------------------------------------------

    def handle_wakeup(self, msg: WakeUpRequest) -> None:
        queue = self._queues.get(msg.addr)
        if queue is None:
            raise SimulationError(
                f"WakeUpRequest for untracked address 0x{msg.addr:x}")
        if queue.head_valid:
            raise SimulationError(
                f"WakeUpRequest for 0x{msg.addr:x} while head "
                f"{queue.head} still valid")
        successor = msg.successor
        pending = queue.pending.pop(successor, None)
        if pending is None:
            raise SimulationError(
                f"WakeUpRequest names core {successor} which has no "
                f"withheld request on 0x{msg.addr:x}")
        queue.head = successor
        queue.head_valid = True
        self._serve_head(queue, pending)
        self._note_depth()

    # -- write monitoring ----------------------------------------------------------------

    def on_write(self, addr: int) -> None:
        """Committed plain store: clear the head's reservation, waking a
        monitoring Mwait head if there is one."""
        queue = self._queues.get(addr)
        if queue is None or not queue.head_valid or not queue.reservation_valid:
            return
        if queue.head_op is LRWAIT:
            queue.reservation_valid = False
            self.ctrl.stats.reservations_invalidated += 1
            return
        # Monitoring Mwait head: release it with the fresh value.  The
        # rest of the chain wakes through Qnode WakeUpRequests (§IV-B).
        queue.reservation_valid = False
        head_req = self._monitoring_request(queue)
        self._respond_and_dequeue(queue, head_req,
                                  value=self.ctrl.read(addr))
        self._note_depth()

    def _monitoring_request(self, queue: _ColibriQueue) -> MemRequest:
        """Reconstruct the head's original request for the response.

        The controller withholds responses for *queued* cores in
        ``pending``; the head's request was consumed when served, so for
        a monitoring Mwait we rebuild an equivalent request envelope
        (op/core/addr are all the response needs).
        """
        return MemRequest(op=MWAIT, core_id=queue.head, addr=queue.addr)

    # -- introspection ------------------------------------------------------------------------

    def pending_waiters(self) -> int:
        """Withheld requests plus live heads parked at this bank."""
        total = 0
        for queue in self._queues.values():
            total += len(queue.pending)
            if queue.head_valid and queue.head_op is MWAIT:
                total += 1
        return total

    def tracked_addresses(self) -> list:
        """Addresses currently holding a head/tail pair (tests)."""
        return sorted(self._queues)

    def queue_state(self, addr: int) -> Optional[_ColibriQueue]:
        """Raw queue registers for one address (tests)."""
        return self._queues.get(addr)
