"""MemPool-style LR/SC: one reservation slot per bank.

This is the baseline the paper compares against (§II): "MemPool
implements a lightweight version of LRSC by only providing a single
reservation slot per memory bank.  However, this sacrifices the
non-blocking property of the LRSC pair."

Semantics implemented here:

* **LR** loads the word and overwrites the bank's single reservation
  with ``(core, addr)`` — a newer LR from any core *steals* the slot,
  which is precisely what makes the scheme retry-prone under
  contention.
* **SC** succeeds only if the slot still holds ``(core, addr)``; it
  then commits the store and clears the slot.  Any failure leaves
  memory untouched and returns :data:`Status.SC_FAIL` (non-zero rd in
  RISC-V terms).
* Any committed store to the reserved address (SW, AMO, or a winning
  SC) invalidates the slot.
"""

from __future__ import annotations

from typing import Optional

from ..interconnect.messages import MemRequest, Op, Status
from .adapter import AtomicAdapter


class LrscAdapter(AtomicAdapter):
    """Single-reservation-slot LR/SC unit (the paper's LRSC baseline)."""

    EXTRA_OPS = frozenset({Op.LR, Op.SC})

    def __init__(self, controller) -> None:
        super().__init__(controller)
        #: The one slot: ``(core_id, addr)`` or ``None``.
        self._reservation: Optional[tuple] = None

    # -- protocol ------------------------------------------------------------

    def handle_reserved(self, req: MemRequest) -> None:
        if req.op is Op.LR:
            self._handle_lr(req)
        elif req.op is Op.SC:
            self._handle_sc(req)
        else:
            super().handle_reserved(req)

    def _handle_lr(self, req: MemRequest) -> None:
        if self._reservation is not None:
            # The newcomer evicts whoever held the slot.
            self.ctrl.stats.reservations_invalidated += 1
        self._reservation = (req.core_id, req.addr)
        self.ctrl.stats.reservations_placed += 1
        self.ctrl.respond(req, value=self.ctrl.read(req.addr))

    def _handle_sc(self, req: MemRequest) -> None:
        if self._reservation == (req.core_id, req.addr):
            self._reservation = None
            self.ctrl.write(req.addr, req.value)
            # The SC's own store must not be able to fail a *future* SC
            # of the same core, so clear before the on_write sweep.
            self.on_write(req.addr)
            self.ctrl.respond(req, value=0, status=Status.OK)
        else:
            self.ctrl.respond(req, value=1, status=Status.SC_FAIL)

    def on_write(self, addr: int) -> None:
        """A committed store kills a matching reservation (§III step 3)."""
        if self._reservation is not None and self._reservation[1] == addr:
            self._reservation = None
            self.ctrl.stats.reservations_invalidated += 1

    # -- introspection -----------------------------------------------------------

    @property
    def reservation(self) -> Optional[tuple]:
        """Current ``(core, addr)`` slot content, for tests."""
        return self._reservation
