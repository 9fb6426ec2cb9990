"""Base atomic adapter: loads, stores and single-instruction AMOs.

Every variant's adapter inherits from :class:`AtomicAdapter`, which
services the operations all of them share (LW/SW and the RV32A
read-modify-write instructions) and defines the extension points the
reservation machinery hooks into:

* :meth:`AtomicAdapter.handle_reserved` — LR/SC/LRwait/SCwait/Mwait
  dispatch, overridden by each variant;
* :meth:`AtomicAdapter.on_write` — called after *every* committed store
  so reservations on the written address can be invalidated (paper
  §III step 3: "A store to the same address clears the reservation").
"""

from __future__ import annotations

from ..engine.errors import ProtocolViolation
from ..interconnect.messages import MemRequest, Op, Status


def _op_kinds(extra_ops: frozenset) -> tuple:
    """Dispatch table indexed by ``Op.index``: each op's ``kind``, or
    ``None`` for a reservation-family op outside ``extra_ops``."""
    return tuple(None if op.kind == "reserved" and op not in extra_ops
                 else op.kind for op in Op)


class AtomicAdapter:
    """Services LW/SW/AMO; subclasses add reservation protocols.

    The adapter runs *inside* the bank's service slot: all its state
    transitions for one request happen atomically at the request's
    service cycle, exactly like combinational adapter logic next to the
    SRAM.  Outgoing messages (responses, SuccessorUpdates) are handed to
    the controller, which puts them on the network.

    Adapters need no reset: every machine builds its adapters fresh, so
    a plug-in keeps its mutable state in plain attributes set up in
    ``__init__``.

    A machine builds a bank's adapter the first time the bank is
    reached, which may be mid-run.  ``__init__`` must therefore only
    set up state: it must not schedule events, draw from an RNG or
    raise for parameters :meth:`AtomicVariant.resolve
    <repro.memory.variants.AtomicVariant.resolve>` accepted (those are
    checked when the machine is built).
    """

    #: Ops this adapter accepts beyond LW/SW/AMO; subclasses extend.
    EXTRA_OPS: frozenset = frozenset()

    #: :meth:`handle`'s dispatch table, derived from :attr:`EXTRA_OPS`
    #: once per class — never per adapter, since a 256-core machine
    #: builds 1024 of them.
    _OP_KINDS: tuple = _op_kinds(EXTRA_OPS)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._OP_KINDS = _op_kinds(cls.EXTRA_OPS)

    def __init__(self, controller) -> None:
        self.ctrl = controller

    # -- main dispatch -------------------------------------------------------

    def handle(self, req: MemRequest) -> None:
        """Service one request during its bank slot."""
        op = req.op
        kind = self._OP_KINDS[op.index]
        if kind == "reserved":
            self.handle_reserved(req)
            return
        ctrl = self.ctrl
        if kind == "load":
            ctrl.respond(req, value=ctrl.read(req.addr))
        elif kind == "amo":
            addr = req.addr
            old = ctrl.read(addr)
            ctrl.write(addr, self._amo_result(op, old, req.value))
            self.on_write(addr)
            ctrl.respond(req, value=old)
        elif kind == "store":
            ctrl.write(req.addr, req.value)
            self.on_write(req.addr)
            ctrl.respond(req, value=0)
        else:
            raise ProtocolViolation(
                f"bank {self.ctrl.bank_id}: op {op.value} unsupported by "
                f"{type(self).__name__}")

    def _amo_result(self, op: Op, old: int, operand: int) -> int:
        """Combinational AMO ALU (max/min are signed, as amomax/amomin)."""
        if op is Op.AMO_ADD:
            return old + operand
        if op is Op.AMO_SWAP:
            return operand
        if op is Op.AMO_AND:
            return old & operand
        if op is Op.AMO_OR:
            return old | operand
        if op is Op.AMO_XOR:
            return old ^ operand
        bank = self.ctrl.bank
        signed_old = bank.to_signed(old)
        signed_new = bank.to_signed(operand & bank.mask)
        if op is Op.AMO_MAX:
            return old if signed_old >= signed_new else operand
        if op is Op.AMO_MIN:
            return old if signed_old <= signed_new else operand
        raise ProtocolViolation(f"not an AMO: {op}")

    # -- extension points ------------------------------------------------------

    def handle_reserved(self, req: MemRequest) -> None:
        """Service a reservation-family op (LR/SC/waits); variant-specific."""
        raise ProtocolViolation(
            f"bank {self.ctrl.bank_id}: {req.op.value} needs a reservation "
            f"adapter, none configured")

    def handle_wakeup(self, msg) -> None:
        """Service a Colibri WakeUpRequest; only Colibri implements it."""
        raise ProtocolViolation(
            f"bank {self.ctrl.bank_id}: unexpected WakeUpRequest for "
            f"{type(self).__name__}")

    def on_write(self, addr: int) -> None:
        """Hook after any committed store to ``addr``; default: nothing."""

    # -- introspection (tests) ---------------------------------------------------

    def pending_waiters(self) -> int:
        """Cores currently parked in this adapter (0 for stateless ones)."""
        return 0


class AmoAdapter(AtomicAdapter):
    """The plain RV32A unit: no reservations at all.

    This is the paper's *Atomic Add* configuration — the throughput
    roofline of Fig. 3, usable only when the RMW fits one instruction.
    """

    #: Fails SC immediately rather than erroring: RISC-V permits an SC
    #: without a valid reservation to simply fail, and software written
    #: against LR/SC should degrade, not crash, on an AMO-only unit.
    EXTRA_OPS = frozenset({Op.SC})

    def handle_reserved(self, req: MemRequest) -> None:
        if req.op is Op.SC:
            self.ctrl.respond(req, value=1, status=Status.SC_FAIL)
            return
        super().handle_reserved(req)
