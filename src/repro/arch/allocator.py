"""Simulated SPM allocator.

Bare-metal MemPool software places data deliberately: shared arrays are
interleaved across all banks, while per-core structures (MCS nodes,
private counters) live in banks local to the owning core's tile so the
frequent accesses stay at local latency.  Workloads in this repo need
the same control, so the allocator offers both placement styles:

* :meth:`Allocator.alloc_interleaved` — ``n`` consecutive words, which
  the word-interleaved :class:`~repro.arch.address_map.AddressMap`
  automatically spreads across banks;
* :meth:`Allocator.alloc_in_bank` / :meth:`Allocator.alloc_core_local`
  — words pinned to a chosen (or tile-local) bank.

Interleaved allocation grows from row 0 upward; pinned allocation grows
from the top row downward, so the two regions collide only when a bank
is genuinely full (raises :class:`~repro.engine.errors.MemoryError_`).
"""

from __future__ import annotations

from ..engine.errors import MemoryError_
from .address_map import AddressMap
from .config import SystemConfig
from .topology import Topology


class Allocator:
    """Bump allocator over the simulated SPM with placement control."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.address_map = AddressMap(config)
        self.topology = Topology(config)
        #: Next row used by interleaved allocation (shared low watermark).
        self._low_row = 0
        #: Residual words already handed out inside the current low row.
        self._low_word = 0
        #: Per-bank high watermark for pinned allocation (exclusive).
        self._high_row = [config.words_per_bank] * config.num_banks
        #: ``min(self._high_row)``, kept as the watermarks only fall.
        self._min_high_row = config.words_per_bank

    # -- interleaved allocation ------------------------------------------------

    def alloc_interleaved(self, num_words: int) -> int:
        """Allocate ``num_words`` consecutive words; return base address.

        Consecutive words map to consecutive banks, spreading the array
        across the whole SPM like MemPool's heap.
        """
        if num_words < 1:
            raise MemoryError_("allocation size must be >= 1 word")
        # The address map's plain attributes, not the config's derived
        # properties: queues and locks allocate thousands of words.
        num_banks = self.address_map.num_banks
        base_word = self._low_row * num_banks + self._low_word
        end_word = base_word + num_words
        self._low_row = end_word // num_banks
        self._low_word = end_word % num_banks
        self._check_collision()
        return base_word * self.address_map.word_bytes

    def alloc_row_aligned(self, num_words: int) -> int:
        """Like :meth:`alloc_interleaved` but starting at bank 0 of a row.

        Useful when a workload wants ``array[i]`` to land in bank
        ``i % num_banks`` exactly (histogram bins in Fig. 3/4 map one
        bin per bank this way for low bin counts).
        """
        if self._low_word:
            self._low_row += 1
            self._low_word = 0
        return self.alloc_interleaved(num_words)

    # -- pinned allocation --------------------------------------------------------

    def alloc_in_bank(self, bank_id: int, num_words: int = 1) -> int:
        """Allocate ``num_words`` rows in one bank; return address of first.

        The words are *vertically* adjacent (consecutive rows of the
        same bank), so their byte addresses differ by
        ``num_banks * word_bytes``.
        """
        if not 0 <= bank_id < self.address_map.num_banks:
            raise MemoryError_(f"bank {bank_id} out of range")
        if num_words < 1:
            raise MemoryError_("allocation size must be >= 1 word")
        top = self._high_row[bank_id] - num_words
        if top < 0:
            raise MemoryError_(f"bank {bank_id} exhausted")
        self._high_row[bank_id] = top
        if top < self._min_high_row:
            self._min_high_row = top
        self._check_collision()
        return self.address_map.address_of(bank_id, top)

    def alloc_core_local(self, core_id: int, num_words: int = 1) -> int:
        """Allocate in a bank of the core's own tile (round-robin inside)."""
        banks = self.topology.local_banks_of_core(core_id)
        bank = banks[core_id % len(banks)]
        return self.alloc_in_bank(bank, num_words)

    # -- bookkeeping -----------------------------------------------------------------

    def _check_collision(self) -> None:
        low = self._low_row + (1 if self._low_word else 0)
        if low > self._min_high_row:
            raise MemoryError_(
                "SPM exhausted: interleaved and pinned regions collided "
                f"(low row {low}, high row {self._min_high_row})")

    @property
    def words_free(self) -> int:
        """Approximate free words remaining (pessimistic per-bank bound)."""
        low = self._low_row + (1 if self._low_word else 0)
        return sum(max(0, high - low) for high in self._high_row)
