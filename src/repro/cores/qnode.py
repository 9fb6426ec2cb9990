"""The per-core hardware queue node (Qnode) of Colibri (paper §IV).

Each core owns exactly one Qnode; since a core can wait in at most one
reservation queue at a time (§III-b), one node suffices and total Qnode
state scales as O(n).  The Qnode:

* remembers which queue (address/bank) the core is currently linked
  into;
* accepts :class:`SuccessorUpdate` messages *even while the core
  sleeps* ("allowing the queue to be enlarged independent of the cores'
  state", §IV);
* emits the :class:`WakeUpRequest` when the core's SCwait passes on its
  way to memory (or, if the successor link was still in flight at that
  moment, when the SuccessorUpdate finally arrives and "bounces back",
  §IV-A.1);
* does the same bookkeeping for Mwait completions (§IV-B), where the
  *response* rather than an SCwait triggers the successor wake-up.

One hardware-faithful subtlety: the Qnode is a single register set.  If
the core wants to enter a *new* queue while the node still owes a
bounced WakeUpRequest for the previous one (state ``passed``), the new
wait operation stalls inside the Qnode until the bounce resolves.  This
is rare — it requires the previous SCwait to race a concurrent enqueue —
but the model implements the stall rather than pretending the node can
track two queues.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..engine.errors import ProtocolViolation, SimulationError
from ..interconnect.messages import (
    MWAIT,
    QUEUE_FULL,
    SCWAIT,
    MemRequest,
    MemResponse,
    SuccessorUpdate,
    WakeUpRequest,
)


class Qnode:
    """Hardware queue node sitting between one core and the network."""

    def __init__(self, core_id: int, send_wakeup: Callable[[WakeUpRequest], None],
                 release_stalled: Callable[[MemRequest, int], None]) -> None:
        self.core_id = core_id
        self._send_wakeup = send_wakeup
        #: Callback that actually injects a stalled wait op into the
        #: network once the node frees up (wired to the core model).
        self._release_stalled = release_stalled
        # -- queue-membership registers --
        self.armed_addr: Optional[int] = None
        self.armed_bank: Optional[int] = None
        self.successor: Optional[int] = None
        #: Response consumed, successor link still in flight: the next
        #: SuccessorUpdate for ``armed_addr`` must bounce as a WakeUp.
        self.passed: bool = False
        #: WakeUp already emitted at SCwait pass time.
        self.dispatched: bool = False
        #: Wait op the core issued while the node still owed a bounce.
        self._stalled: Optional[tuple] = None

    # -- state queries -----------------------------------------------------

    @property
    def armed(self) -> bool:
        """True while the node represents membership in some queue."""
        return self.armed_addr is not None

    @property
    def busy_with_pass(self) -> bool:
        """True while the node owes a bounced WakeUpRequest."""
        return self.passed

    # -- core-side events -----------------------------------------------------

    def try_issue_wait(self, req: MemRequest, bank_id: int) -> bool:
        """Core issues LRwait/Mwait: arm the node or stall the request.

        Returns ``True`` when the request may enter the network now;
        ``False`` when it was buffered until the pending pass resolves.
        """
        if self.passed:
            if self._stalled is not None:
                raise ProtocolViolation(
                    f"core {self.core_id}: second wait op while one is "
                    f"already stalled at the Qnode")
            self._stalled = (req, bank_id)
            return False
        if self.armed_addr is not None:
            raise ProtocolViolation(
                f"core {self.core_id}: wait op to 0x{req.addr:x} while "
                f"still linked into queue 0x{self.armed_addr:x} "
                f"(violates the one-outstanding-LRwait rule, §III-b)")
        self._arm(req.addr, bank_id)
        return True

    def on_scwait_pass(self) -> None:
        """The core's SCwait passes through on its way to memory.

        If the successor is already linked, the WakeUpRequest departs
        immediately — the paper's fast path (Fig. 2 step 6).
        """
        if self.armed_addr is None:
            raise ProtocolViolation(
                f"core {self.core_id}: SCwait without queue membership")
        if self.successor is not None:
            self._emit_wakeup(self.successor)
            self.dispatched = True

    def on_response(self, resp: MemResponse) -> None:
        """Filter a wait-family response on its way into the core.

        The core hands over only LRwait, Mwait and SCwait responses;
        every other op leaves the node untouched.
        """
        if resp.op is SCWAIT:
            self._resolve_exit(resp)
        elif resp.op.is_wait:
            if resp.status is QUEUE_FULL:
                self._disarm()  # never enqueued
            elif resp.op is MWAIT:
                # Mwait completion doubles as the dequeue (§IV-B).
                self._resolve_exit(resp)
            # A successful LRwait response leaves the node armed: the
            # core now holds the head and will exit via SCwait.

    def _resolve_exit(self, resp: MemResponse) -> None:
        """Common dequeue path for SCwait and Mwait responses."""
        if self.dispatched:
            self._disarm()
        elif self.successor is not None:
            # The link arrived while the request/response was in flight.
            self._emit_wakeup(self.successor)
            self._disarm()
        elif resp.successor_pending:
            # Controller saw tail != head; the SuccessorUpdate will
            # arrive and must bounce.  Stay armed.
            self.passed = True
        else:
            self._disarm()

    # -- network-side events ------------------------------------------------------

    def on_successor_update(self, msg: SuccessorUpdate) -> None:
        """A SuccessorUpdate arrives (possibly while the core sleeps)."""
        if self.armed_addr is None or msg.addr != self.armed_addr:
            raise SimulationError(
                f"core {self.core_id}: SuccessorUpdate for 0x{msg.addr:x} "
                f"but node is linked to "
                f"{'nothing' if not self.armed else hex(self.armed_addr)}")
        if self.passed:
            # The bounce of §IV-A.1: forward straight back as a WakeUp.
            self._emit_wakeup(msg.successor)
            self._disarm()
        else:
            self.successor = msg.successor

    # -- internals --------------------------------------------------------------------

    def _arm(self, addr: int, bank_id: int) -> None:
        self.armed_addr = addr
        self.armed_bank = bank_id
        self.successor = None
        self.passed = False
        self.dispatched = False

    def _disarm(self) -> None:
        self.armed_addr = None
        self.armed_bank = None
        self.successor = None
        self.passed = False
        self.dispatched = False
        if self._stalled is not None:
            req, bank_id = self._stalled
            self._stalled = None
            self._arm(req.addr, bank_id)
            self._release_stalled(req, bank_id)

    def _emit_wakeup(self, successor: int) -> None:
        assert self.armed_addr is not None and self.armed_bank is not None
        self._send_wakeup(WakeUpRequest(self.armed_bank, self.armed_addr,
                                        self.core_id, successor))
