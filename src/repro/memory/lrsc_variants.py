"""Related-work LR/SC implementations (paper §II comparators).

The paper's related-work section surveys how existing RISC-V systems
trade off LR/SC reservation storage; two of them are implemented here
so the benchmark suite can compare the whole design space:

* :class:`LrscTableAdapter` — ATUN/Rocket-style **reservation table**
  with one slot per core: an LR never evicts another core's
  reservation, making the pair non-blocking.  SCs fail only on *real*
  conflicts (a committed store to the reserved address).  Hardware
  cost: ``n`` address-wide entries per bank — the storage-scaling
  problem that motivates Colibri.
* :class:`LrscBankAdapter` — GRVI-style **bank-granularity**
  reservations: one bit per core per bank.  An LR reserves the whole
  bank; *any* committed store to the bank (whatever the address) clears
  every reservation bit, so SCs "spuriously fail" exactly as §II
  describes.  Hardware cost: ``n`` bits per bank.

Both still retry on failure — they address reservation *storage*, not
the polling/retry problem LRSCwait solves.

This module holds only the adapter state machines; their registration
(parameter schema, capability flags, area cost models) lives with the
other built-ins in :mod:`repro.memory.variants`, and further §II-style
comparators can be added without touching either file — see
:mod:`repro.memory.extra_variants` for two variants registered purely
through the public API.
"""

from __future__ import annotations

from ..interconnect.messages import OK, SC_FAIL, MemRequest, Op
from .adapter import AtomicAdapter


class LrscTableAdapter(AtomicAdapter):
    """Per-core reservation table (non-blocking LR/SC, ATUN-style)."""

    OP_METHODS = {Op.LR: "_handle_lr", Op.SC: "_handle_sc"}

    def __init__(self, controller) -> None:
        super().__init__(controller)
        #: core_id -> reserved byte address (one live slot per core).
        self._table: dict = {}

    def _handle_lr(self, req: MemRequest) -> None:
        self._table[req.core_id] = req.addr
        self.ctrl.stats.reservations_placed += 1
        self.ctrl.respond(req, self.ctrl.read(req.addr))

    def _handle_sc(self, req: MemRequest) -> None:
        if self._table.get(req.core_id) == req.addr:
            del self._table[req.core_id]
            self.ctrl.write(req.addr, req.value)
            self.on_write(req.addr)
            self.ctrl.respond(req, 0, OK)
        else:
            self.ctrl.respond(req, 1, SC_FAIL)

    def on_write(self, addr: int) -> None:
        """A committed store kills every reservation on that address."""
        stale = [core for core, reserved in self._table.items()
                 if reserved == addr]
        for core in stale:
            del self._table[core]
            self.ctrl.stats.reservations_invalidated += 1

    def pending_waiters(self) -> int:
        return 0

    @property
    def live_reservations(self) -> int:
        """Current table occupancy (tests)."""
        return len(self._table)


class LrscBankAdapter(AtomicAdapter):
    """Bank-granularity reservations (one bit per core, GRVI-style)."""

    OP_METHODS = {Op.LR: "_handle_lr", Op.SC: "_handle_sc"}

    def __init__(self, controller) -> None:
        super().__init__(controller)
        #: Cores currently holding the bank-wide reservation bit.
        self._reserved: set = set()

    def _handle_lr(self, req: MemRequest) -> None:
        self._reserved.add(req.core_id)
        self.ctrl.stats.reservations_placed += 1
        self.ctrl.respond(req, self.ctrl.read(req.addr))

    def _handle_sc(self, req: MemRequest) -> None:
        if req.core_id in self._reserved:
            # The winning SC's own store clears everyone, self included
            # (the write is a store to the bank).
            self.ctrl.write(req.addr, req.value)
            self.on_write(req.addr)
            self.ctrl.respond(req, 0, OK)
        else:
            self.ctrl.respond(req, 1, SC_FAIL)

    def on_write(self, addr: int) -> None:
        """Any committed store to the bank clears every bit — the
        source of GRVI's spurious SC failures."""
        if self._reserved:
            self.ctrl.stats.reservations_invalidated += len(self._reserved)
            self._reserved.clear()

    def pending_waiters(self) -> int:
        return 0

    @property
    def live_reservations(self) -> int:
        """Cores currently holding the bank bit (tests)."""
        return len(self._reserved)
