"""Matrix-multiplication worker kernel (the victim of Fig. 5).

Fig. 5 measures *interference*: cores running a matmul share the SPM
banks and interconnect with cores hammering atomics.  The matmul here
is a straightforward blocked GEMM over interleaved arrays — each MAC
performs two loads and two compute cycles, and each output element one
store — so its performance is bound by bank/interconnect availability,
which is exactly the resource the pollers' retry traffic steals.

Each worker owns a contiguous slice of output rows.  The kernel's
completion time (makespan over workers) is the experiment's metric.
"""

from __future__ import annotations

from ..cores.api import RETIRE, Compute, CoreApi, MemCmd
from ..interconnect.messages import LW, SW
from ..machine import Machine

#: One multiply-accumulate: two compute cycles (mul + add).
MUL_ADD = Compute(2)


class Matmul:
    """C = A × B on shared interleaved arrays."""

    def __init__(self, machine: Machine, dim: int) -> None:
        self.machine = machine
        self.dim = dim
        self.word = machine.config.word_bytes
        self.a_base = machine.allocator.alloc_interleaved(dim * dim)
        self.b_base = machine.allocator.alloc_interleaved(dim * dim)
        self.c_base = machine.allocator.alloc_interleaved(dim * dim)

    def fill_inputs(self, seed: int = 7) -> None:
        """Deterministic small-integer inputs (host-side setup)."""
        import random
        rng = random.Random(seed)
        for index in range(self.dim * self.dim):
            self.machine.poke(self.a_base + index * self.word,
                              rng.randrange(8))
            self.machine.poke(self.b_base + index * self.word,
                              rng.randrange(8))

    def _addr(self, base: int, row: int, col: int) -> int:
        return base + (row * self.dim + col) * self.word

    def worker_kernel(self, api: CoreApi, rows) -> object:
        """Compute the given output rows (iterable of row indices).

        The A-row and B-column load commands are built up front and
        reused across iterations (the core only reads commands); the
        stores carry data-dependent values, so they are built inline.
        """
        dim = self.dim
        b_cols = [[MemCmd(LW, self._addr(self.b_base, k, col))
                   for k in range(dim)]
                  for col in range(dim)]
        for row in rows:
            a_row = [MemCmd(LW, self._addr(self.a_base, row, k))
                     for k in range(dim)]
            for col in range(dim):
                b_col = b_cols[col]
                acc = 0
                for k in range(dim):
                    resp_a = yield a_row[k]
                    resp_b = yield b_col[k]
                    yield MUL_ADD
                    acc += resp_a.value * resp_b.value
                yield MemCmd(SW, self._addr(self.c_base, row, col), acc)
                yield RETIRE

    def partition_rows(self, num_workers: int) -> list:
        """Split output rows round-robin across ``num_workers``."""
        return [range(worker, self.dim, num_workers)
                for worker in range(num_workers)]

    def verify(self) -> None:
        """Host-side check of the product (after the run)."""
        dim, word = self.dim, self.word
        a = [self.machine.peek(self.a_base + i * word)
             for i in range(dim * dim)]
        b = [self.machine.peek(self.b_base + i * word)
             for i in range(dim * dim)]
        c = [self.machine.peek(self.c_base + i * word)
             for i in range(dim * dim)]
        for row in range(dim):
            for col in range(dim):
                expected = sum(a[row * dim + k] * b[k * dim + col]
                               for k in range(dim))
                got = c[row * dim + col]
                if got != expected:
                    raise AssertionError(
                        f"C[{row}][{col}] = {got}, expected {expected}")
