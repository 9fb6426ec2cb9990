"""Message and operation types exchanged between cores and memory.

Four message families exist, mirroring the paper's Fig. 2:

* :class:`MemRequest` — core → bank: loads, stores, AMOs, LR/SC, and the
  new LRwait/SCwait/Mwait operations (§III).
* :class:`MemResponse` — bank → core: the (possibly *withheld*)
  response.  For LRwait/Mwait the controller delays this message until
  the issuing core reaches the head of the reservation queue — that
  delay is the entire mechanism that removes polling.
* :class:`SuccessorUpdate` — bank → Qnode: Colibri's enqueue message
  that links a new tail behind the previous one (§IV, step 4).
* :class:`WakeUpRequest` — Qnode → bank: Colibri's dequeue message that
  tells the controller which core to serve next (§IV, step 6).

Every simulated request touches its :class:`Op` several times on the
way core → network → bank → adapter → response, so each member carries
plain precomputed attributes that the hot paths read instead of testing
frozenset membership (a Python-level ``Enum.__hash__`` call) or going
through the ``Op.value`` descriptor:

* ``mnemonic`` — the request's message/counter key, equal to ``value``;
* ``resp_mnemonic`` — the key of its response, ``"resp_" + value``;
* ``is_wait`` / ``is_amo`` — membership in :data:`WAIT_OPS` /
  :data:`AMO_OPS`, from which they are derived;
* ``is_sc`` — SC or SCwait, the ops whose response reports success;
* ``index`` — the member's position in :class:`Op`, for tuple tables
  such as each adapter class's service table.

The frozensets stay the public API; the attributes are set from them
once, at import, so the two cannot disagree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class Op(Enum):
    """Memory operation mnemonics (RV32A plus the LRSCwait extension)."""

    LW = "lw"
    SW = "sw"
    AMO_ADD = "amoadd"
    AMO_SWAP = "amoswap"
    AMO_AND = "amoand"
    AMO_OR = "amoor"
    AMO_XOR = "amoxor"
    AMO_MAX = "amomax"
    AMO_MIN = "amomin"
    LR = "lr"
    SC = "sc"
    LRWAIT = "lrwait"
    SCWAIT = "scwait"
    MWAIT = "mwait"

    # Precomputed per member below, after the op sets exist.
    mnemonic: str
    resp_mnemonic: str
    is_wait: bool
    is_amo: bool
    is_sc: bool
    index: int


#: Operations that modify memory when they succeed.
WRITE_OPS = frozenset({
    Op.SW, Op.AMO_ADD, Op.AMO_SWAP, Op.AMO_AND, Op.AMO_OR,
    Op.AMO_XOR, Op.AMO_MAX, Op.AMO_MIN, Op.SC, Op.SCWAIT,
})

#: Read-modify-write operations handled entirely inside the bank adapter.
AMO_OPS = frozenset({
    Op.AMO_ADD, Op.AMO_SWAP, Op.AMO_AND, Op.AMO_OR,
    Op.AMO_XOR, Op.AMO_MAX, Op.AMO_MIN,
})

#: Operations whose response may be withheld by the controller.
WAIT_OPS = frozenset({Op.LRWAIT, Op.MWAIT})

for _index, _op in enumerate(Op):
    _op.index = _index
    _op.mnemonic = _op.value
    _op.resp_mnemonic = "resp_" + _op.value
    _op.is_wait = _op in WAIT_OPS
    _op.is_amo = _op in AMO_OPS
    _op.is_sc = _op is Op.SC or _op is Op.SCWAIT
del _index, _op


class Status(Enum):
    """Response status codes."""

    #: Operation succeeded (for SC/SCwait: the store was performed).
    OK = "ok"
    #: SC/SCwait failed: no valid reservation at store time.
    SC_FAIL = "sc_fail"
    #: LRwait/Mwait rejected: the hardware queue had no free slot
    #: (§III-B: "cores executing an LRwait to a full queue will fail
    #: immediately").
    QUEUE_FULL = "queue_full"


# The members as module-level names, for function bodies on the
# simulation path: on Python <= 3.11 ``EnumType`` defines
# ``__getattr__``, so every ``Op.X`` load goes through the slow slot hook.
(LW, SW, AMO_ADD, AMO_SWAP, AMO_AND, AMO_OR, AMO_XOR, AMO_MAX, AMO_MIN,
 LR, SC, LRWAIT, SCWAIT, MWAIT) = Op
OK, SC_FAIL, QUEUE_FULL = Status

_req_ids = itertools.count()


@dataclass(slots=True)
class MemRequest:
    """A core-issued memory operation travelling to a bank."""

    op: Op
    core_id: int
    addr: int
    #: Store data / AMO operand (ignored by loads).
    value: int = 0
    #: Mwait only: the value the core believes is current; if memory
    #: already differs when the Mwait is served, it completes at once.
    expected: Optional[int] = None
    #: Unique id for tracing and response matching.
    req_id: int = field(default_factory=lambda: next(_req_ids))
    #: Cycle the core issued the request (filled by the core model).
    issued_at: int = 0

    def __str__(self) -> str:  # pragma: no cover - tracing convenience
        return (f"{self.op.value} core={self.core_id} "
                f"addr=0x{self.addr:x} val={self.value}")


@dataclass(slots=True)
class MemResponse:
    """A bank's answer to a :class:`MemRequest`."""

    op: Op
    core_id: int
    addr: int
    #: Loaded/previous value (loads, AMOs, LR, LRwait, Mwait).
    value: int = 0
    status: Status = Status.OK
    req_id: int = 0
    #: Colibri only (SCwait/Mwait responses): ``True`` when the
    #: controller had already been told about a successor (tail moved
    #: past this core), so the Qnode must emit/await the WakeUpRequest;
    #: ``False`` when the controller freed the queue (head == tail).
    successor_pending: bool = False


@dataclass(slots=True)
class SuccessorUpdate:
    """Colibri: link ``successor`` behind ``prev_core``'s Qnode."""

    bank_id: int
    addr: int
    #: The core whose Qnode receives this update (previous tail).
    prev_core: int
    #: The newly enqueued core to be linked as successor.
    successor: int


@dataclass(slots=True)
class WakeUpRequest:
    """Colibri: tell the controller to serve ``successor`` next."""

    bank_id: int
    addr: int
    #: The dequeuing core whose Qnode sent the request.
    from_core: int
    #: The core to promote to head and serve.
    successor: int
