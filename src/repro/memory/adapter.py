"""Base atomic adapter: loads, stores and single-instruction AMOs.

Every variant's adapter inherits from :class:`AtomicAdapter`, which
services the operations all of them share (LW/SW and the RV32A
read-modify-write instructions).  The plug-in contract:

* **Map ops to methods.**  :attr:`AtomicAdapter.OP_METHODS` maps each
  op the class serves to the name of a method ``(self, req)``; a
  subclass's map extends its bases' (and may remap an op), and a
  subclass overriding a mapped method by name is picked up too.  The
  reservation-family ops (LR/SC/LRwait/SCwait/Mwait) are served only
  where some class maps them.
* **Or override** :meth:`AtomicAdapter.handle_reserved`.  Its ops are
  the reservation-family ops of :attr:`AtomicAdapter.EXTRA_OPS` plus
  every one a class in the hierarchy maps; once a subclass overrides
  it, all of them go through the override, even those a parent maps,
  and ``super().handle_reserved(req)`` reaches the mapped method.
  Overriding :meth:`AtomicAdapter.handle` routes *every* op through
  the override; ``super().handle(req)`` serves it as the class would.
* :meth:`AtomicAdapter.on_write` is called after *every* committed
  store so reservations on the written address can be invalidated
  (paper §III step 3: "A store to the same address clears the
  reservation").

From these rules each class derives, once, a table of its service
functions indexed by ``Op.index`` (:attr:`AtomicAdapter._SERVE`); the
bank controller calls ``_SERVE[req.op.index](adapter, req)`` once per
serviced request, with no dispatch chain in between.  An op the class
does not accept maps to a function raising
:class:`~repro.engine.errors.ProtocolViolation`.
"""

from __future__ import annotations

from ..engine.errors import ProtocolViolation
from ..interconnect.messages import (
    AMO_AND, AMO_MAX, AMO_MIN, AMO_OPS, AMO_OR, AMO_SWAP, AMO_XOR, SC_FAIL,
    MemRequest, Op)


def _unsupported(adapter: "AtomicAdapter", req: MemRequest) -> None:
    """Service function of an op the adapter does not accept."""
    raise ProtocolViolation(
        f"bank {adapter.ctrl.bank_id}: op {req.op.value} unsupported by "
        f"{type(adapter).__name__}")


def _build_tables(cls) -> None:
    """Derive ``cls``'s per-op tables from the plug-in rules (see the
    module docstring); called once per class."""
    methods: dict = {}
    for klass in reversed(cls.__mro__):
        methods.update(vars(klass).get("OP_METHODS", {}))
    base_ops = AtomicAdapter.OP_METHODS
    reserved_override = \
        cls.handle_reserved is not AtomicAdapter.handle_reserved
    mapped = []
    dispatch = []
    for op in Op:
        name = methods.get(op)
        fn = getattr(cls, name) if name is not None else None
        if op in base_ops:
            mapped.append(None)
            dispatch.append(fn)
            continue
        mapped.append(fn)
        if fn is None and op not in cls.EXTRA_OPS:
            dispatch.append(_unsupported)
        elif reserved_override or fn is None:
            dispatch.append(cls.handle_reserved)
        else:
            dispatch.append(fn)
    cls._MAPPED = tuple(mapped)
    cls._DISPATCH = tuple(dispatch)
    cls._SERVE = (cls._DISPATCH if cls.handle is AtomicAdapter.handle
                  else (cls.handle,) * len(dispatch))


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

    #: ``op -> method name`` for the ops this class serves; a
    #: subclass's map extends its bases'.
    OP_METHODS: dict = {Op.LW: "_load", Op.SW: "_store",
                        **dict.fromkeys(AMO_OPS, "_amo"),
                        Op.AMO_ADD: "_amo_add"}

    #: Reservation-family ops served by an overriding
    #: :meth:`handle_reserved` without a mapped method.
    EXTRA_OPS: frozenset = frozenset()

    #: Per-class tables indexed by ``Op.index``, derived by
    #: :func:`_build_tables` once per class — never per adapter, since
    #: a 256-core machine builds 1024 of them.  ``_SERVE`` is what the
    #: controller calls, ``_DISPATCH`` what :meth:`handle` calls and
    #: ``_MAPPED`` the reservation-family methods
    #: :meth:`handle_reserved` reaches.
    _SERVE: tuple = ()
    _DISPATCH: tuple = ()
    _MAPPED: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _build_tables(cls)

    def __init__(self, controller) -> None:
        self.ctrl = controller

    # -- dispatch ------------------------------------------------------------

    def handle(self, req: MemRequest) -> None:
        """Service one request during its bank slot."""
        self._DISPATCH[req.op.index](self, req)

    def handle_reserved(self, req: MemRequest) -> None:
        """Service a reservation-family op through its mapped method."""
        fn = self._MAPPED[req.op.index]
        if fn is None:
            raise ProtocolViolation(
                f"bank {self.ctrl.bank_id}: {req.op.value} needs a "
                f"reservation adapter, none configured")
        fn(self, req)

    # -- base service functions ------------------------------------------

    def _load(self, req: MemRequest) -> None:
        ctrl = self.ctrl
        ctrl.respond(req, ctrl.read(req.addr))

    def _store(self, req: MemRequest) -> None:
        ctrl = self.ctrl
        ctrl.write(req.addr, req.value)
        self.on_write(req.addr)
        ctrl.respond(req, 0)

    def _amo_add(self, req: MemRequest) -> None:
        """``amoadd``, the histogram's AMO, without the ALU's op tests."""
        ctrl = self.ctrl
        addr = req.addr
        old = ctrl.read(addr)
        ctrl.write(addr, old + req.value)
        self.on_write(addr)
        ctrl.respond(req, old)

    def _amo(self, req: MemRequest) -> None:
        ctrl = self.ctrl
        addr = req.addr
        old = ctrl.read(addr)
        ctrl.write(addr, self._amo_result(req.op, old, req.value))
        self.on_write(addr)
        ctrl.respond(req, old)

    def _amo_result(self, op: Op, old: int, operand: int) -> int:
        """Combinational AMO ALU (max/min are signed, as amomax/amomin).

        ``amoadd`` does not come here: :meth:`_amo_add`, its own
        service function, adds in place.
        """
        if op is AMO_SWAP:
            return operand
        if op is AMO_AND:
            return old & operand
        if op is AMO_OR:
            return old | operand
        if op is AMO_XOR:
            return old ^ operand
        bank = self.ctrl.bank
        signed_old = bank.to_signed(old)
        signed_new = bank.to_signed(operand & bank.mask)
        if op is AMO_MAX:
            return old if signed_old >= signed_new else operand
        if op is AMO_MIN:
            return old if signed_old <= signed_new else operand
        raise ProtocolViolation(f"not an AMO: {op}")

    # -- extension points ------------------------------------------------------

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
    OP_METHODS = {Op.SC: "_fail_sc"}

    def _fail_sc(self, req: MemRequest) -> None:
        self.ctrl.respond(req, 1, SC_FAIL)


_build_tables(AtomicAdapter)
