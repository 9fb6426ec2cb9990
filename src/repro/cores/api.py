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

:class:`CoreApi` wraps the raw commands in ergonomic helpers, for user
kernels, tests and examples, used with ``yield from``::

    def my_kernel(api):
        value = yield from api.lw(addr)
        yield from api.compute(3)
        yield from api.sw(addr, value + 1)
        yield from api.retire()

The API also enforces the software-visible rules of the LRSCwait
extension: :meth:`CoreApi.lrwait` returns the raw response so callers
must handle :data:`Status.QUEUE_FULL`, while :meth:`CoreApi.scwait`
reports success as a bool like RISC-V's SC rd value.

Each helper is one more generator per command.  The library's kernels
(:mod:`repro.sync.rmw`, :mod:`repro.sync.locks`, the queue and the
histogram) therefore yield the commands directly, ``resp = yield
MemCmd(LW, addr)``, and read ``resp.value``/``resp.status``; a
``Compute`` of zero cycles schedules nothing, like :meth:`CoreApi.compute`,
and :data:`RETIRE` is the shared ``Retire(1)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from ..interconnect.messages import (
    AMO_ADD, AMO_AND, AMO_MAX, AMO_MIN, AMO_OR, AMO_SWAP, AMO_XOR, LR, LRWAIT,
    LW, MWAIT, OK, SC, SCWAIT, SW, Op)


@dataclass(slots=True)
class Compute:
    """Execute ``cycles`` of computation (no memory traffic)."""

    cycles: int


@dataclass(slots=True)
class Retire:
    """Count ``count`` completed application-level operations."""

    count: int = 1


#: One retired operation; shared by the kernels that retire after each
#: update (the core only reads commands, so one instance serves all).
RETIRE = Retire(1)


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
        self._seed = seed

    @cached_property
    def rng(self) -> random.Random:
        """Per-core deterministic RNG (workload address streams,
        backoff), seeded on first use: a core that never draws never
        pays for seeding one."""
        return random.Random((self._seed << 20) ^ self.core_id)

    # -- plain memory ---------------------------------------------------------

    def lw(self, addr: int):
        """Load word; returns the value."""
        resp = yield MemCmd(LW, addr)
        return resp.value

    def sw(self, addr: int, value: int):
        """Store word."""
        yield MemCmd(SW, addr, value)

    # -- single-instruction atomics ------------------------------------------------

    def amo_add(self, addr: int, value: int):
        """Atomic fetch-and-add; returns the previous value."""
        resp = yield MemCmd(AMO_ADD, addr, value)
        return resp.value

    def amo_swap(self, addr: int, value: int):
        """Atomic swap; returns the previous value."""
        resp = yield MemCmd(AMO_SWAP, addr, value)
        return resp.value

    def amo_and(self, addr: int, value: int):
        """Atomic AND; returns the previous value."""
        resp = yield MemCmd(AMO_AND, addr, value)
        return resp.value

    def amo_or(self, addr: int, value: int):
        """Atomic OR; returns the previous value."""
        resp = yield MemCmd(AMO_OR, addr, value)
        return resp.value

    def amo_xor(self, addr: int, value: int):
        """Atomic XOR; returns the previous value."""
        resp = yield MemCmd(AMO_XOR, addr, value)
        return resp.value

    def amo_max(self, addr: int, value: int):
        """Atomic signed max; returns the previous value."""
        resp = yield MemCmd(AMO_MAX, addr, value)
        return resp.value

    def amo_min(self, addr: int, value: int):
        """Atomic signed min; returns the previous value."""
        resp = yield MemCmd(AMO_MIN, addr, value)
        return resp.value

    # -- LR/SC (baseline) --------------------------------------------------------------

    def lr(self, addr: int):
        """Load-reserved; returns the value."""
        resp = yield MemCmd(LR, addr)
        return resp.value

    def sc(self, addr: int, value: int):
        """Store-conditional; returns ``True`` on success."""
        resp = yield MemCmd(SC, addr, value)
        return resp.status is OK

    # -- LRSCwait extension ----------------------------------------------------------------

    def lrwait(self, addr: int):
        """Load-reserved-wait; returns the full :class:`MemResponse`.

        The response arrives only when this core reaches the head of
        the reservation queue — the core sleeps until then.  Callers
        must check for :data:`Status.QUEUE_FULL` on bounded hardware.
        """
        resp = yield MemCmd(LRWAIT, addr)
        return resp

    def scwait(self, addr: int, value: int):
        """Store-conditional-wait; returns ``True`` on success."""
        resp = yield MemCmd(SCWAIT, addr, value)
        return resp.status is OK

    def mwait(self, addr: int, expected: int):
        """Sleep until ``addr`` differs from ``expected``; returns the
        full :class:`MemResponse`: ``value`` is the observed value, and
        a ``status`` of :data:`Status.QUEUE_FULL` means bounded hardware
        rejected the monitor, so callers should re-check and fall back
        to polling."""
        resp = yield MemCmd(MWAIT, addr, expected=expected)
        return resp

    # -- non-memory ---------------------------------------------------------------------------

    def compute(self, cycles: int):
        """Burn ``cycles`` of ALU time."""
        if cycles > 0:
            yield Compute(cycles)

    def retire(self, count: int = 1):
        """Mark ``count`` application-level operations as completed."""
        yield Retire(count)
