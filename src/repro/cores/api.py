"""The software-facing instruction API.

Kernels — the "bare-metal programs" of this simulator — are Python
generator functions.  They *yield* command objects and the core FSM
executes them with cycle costs, exactly like an in-order RV32IMA core
executes an instruction stream:

* :class:`Compute` — ``n`` cycles of ALU work (IPC 1);
* :class:`MemCmd` — one memory instruction; the core blocks (stalls or
  sleeps) until the response arrives;
* :class:`Retire` — zero-cost marker counting one completed
  application-level operation (a histogram update, a queue access);
  this feeds the throughput y-axes of Figs. 3, 4 and 6.

:class:`CoreApi` wraps the raw commands in ergonomic helpers used with
``yield from``::

    def my_kernel(api):
        value = yield from api.lw(addr)
        yield from api.compute(3)
        yield from api.sw(addr, value + 1)
        yield from api.retire()

The API also enforces the software-visible rules of the LRSCwait
extension: :meth:`CoreApi.lrwait` returns the raw response so callers
must handle :data:`Status.QUEUE_FULL`, while :meth:`CoreApi.scwait`
reports success as a bool like RISC-V's SC rd value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..interconnect.messages import MemResponse, Op, Status


@dataclass(slots=True)
class Compute:
    """Execute ``cycles`` of computation (no memory traffic)."""

    cycles: int


@dataclass(slots=True)
class Retire:
    """Count ``count`` completed application-level operations."""

    count: int = 1


@dataclass(slots=True)
class MemCmd:
    """One memory instruction to issue."""

    op: Op
    addr: int
    value: int = 0
    expected: Optional[int] = None


class CoreApi:
    """Instruction helpers handed to every kernel."""

    def __init__(self, core_id: int, num_cores: int, seed: int = 0) -> None:
        self.core_id = core_id
        self.num_cores = num_cores
        #: Per-core deterministic RNG (workload address streams).
        self.rng = random.Random((seed << 20) ^ core_id)

    # -- plain memory ---------------------------------------------------------

    def lw(self, addr: int):
        """Load word; returns the value."""
        resp = yield MemCmd(Op.LW, addr)
        return resp.value

    def sw(self, addr: int, value: int):
        """Store word."""
        yield MemCmd(Op.SW, addr, value)

    # -- single-instruction atomics ------------------------------------------------

    def amo_add(self, addr: int, value: int):
        """Atomic fetch-and-add; returns the previous value."""
        resp = yield MemCmd(Op.AMO_ADD, addr, value)
        return resp.value

    def amo_swap(self, addr: int, value: int):
        """Atomic swap; returns the previous value."""
        resp = yield MemCmd(Op.AMO_SWAP, addr, value)
        return resp.value

    def amo_and(self, addr: int, value: int):
        """Atomic AND; returns the previous value."""
        resp = yield MemCmd(Op.AMO_AND, addr, value)
        return resp.value

    def amo_or(self, addr: int, value: int):
        """Atomic OR; returns the previous value."""
        resp = yield MemCmd(Op.AMO_OR, addr, value)
        return resp.value

    def amo_xor(self, addr: int, value: int):
        """Atomic XOR; returns the previous value."""
        resp = yield MemCmd(Op.AMO_XOR, addr, value)
        return resp.value

    def amo_max(self, addr: int, value: int):
        """Atomic signed max; returns the previous value."""
        resp = yield MemCmd(Op.AMO_MAX, addr, value)
        return resp.value

    def amo_min(self, addr: int, value: int):
        """Atomic signed min; returns the previous value."""
        resp = yield MemCmd(Op.AMO_MIN, addr, value)
        return resp.value

    # -- LR/SC (baseline) --------------------------------------------------------------

    def lr(self, addr: int):
        """Load-reserved; returns the value."""
        resp = yield MemCmd(Op.LR, addr)
        return resp.value

    def sc(self, addr: int, value: int):
        """Store-conditional; returns ``True`` on success."""
        resp = yield MemCmd(Op.SC, addr, value)
        return resp.status is Status.OK

    # -- LRSCwait extension ----------------------------------------------------------------

    def lrwait(self, addr: int):
        """Load-reserved-wait; returns the full :class:`MemResponse`.

        The response arrives only when this core reaches the head of
        the reservation queue — the core sleeps until then.  Callers
        must check for :data:`Status.QUEUE_FULL` on bounded hardware.
        """
        resp = yield MemCmd(Op.LRWAIT, addr)
        return resp

    def scwait(self, addr: int, value: int):
        """Store-conditional-wait; returns ``True`` on success."""
        resp = yield MemCmd(Op.SCWAIT, addr, value)
        return resp.status is Status.OK

    def mwait(self, addr: int, expected: int):
        """Sleep until ``addr`` differs from ``expected``; returns the
        observed value (or the full response's value on QUEUE_FULL —
        callers on bounded hardware should re-check and fall back to
        polling; see :class:`MemResponse.status`)."""
        resp = yield MemCmd(Op.MWAIT, addr, expected=expected)
        return resp

    # -- non-memory ---------------------------------------------------------------------------

    def compute(self, cycles: int):
        """Burn ``cycles`` of ALU time."""
        if cycles > 0:
            yield Compute(cycles)

    def retire(self, count: int = 1):
        """Mark ``count`` application-level operations as completed."""
        yield Retire(count)
