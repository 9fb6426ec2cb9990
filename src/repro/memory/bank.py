"""SPM bank storage.

A bank is a single-ported SRAM macro holding ``words_per_bank`` words.
Values are stored as unsigned machine words; helpers convert to/from
two's-complement for the signed AMOs (``amomax``/``amomin``).
"""

from __future__ import annotations

from ..engine.errors import MemoryError_


class SpmBank:
    """Word-addressable storage of one scratchpad-memory bank."""

    def __init__(self, bank_id: int, words: int, word_bytes: int = 4) -> None:
        self.bank_id = bank_id
        self.words = words
        self.word_bytes = word_bytes
        self.mask = (1 << (word_bytes * 8)) - 1
        #: The rows, unsigned.  :meth:`reset` clears the list in place,
        #: so the bank controller's alias to it stays valid.
        self.data = [0] * words

    def reset(self) -> None:
        """Zero the storage in place (warm machine reuse)."""
        self.data[:] = [0] * self.words

    def read(self, row: int) -> int:
        """Return the word at ``row`` (unsigned)."""
        self._check(row)
        return self.data[row]

    def write(self, row: int, value: int) -> None:
        """Store ``value`` at ``row``, truncated to the word width."""
        self._check(row)
        self.data[row] = value & self.mask

    def to_signed(self, value: int) -> int:
        """Interpret an unsigned word as two's-complement."""
        sign_bit = 1 << (self.word_bytes * 8 - 1)
        return value - (self.mask + 1) if value & sign_bit else value

    def _check(self, row: int) -> None:
        if not 0 <= row < self.words:
            raise MemoryError_(
                f"bank {self.bank_id}: row {row} out of range "
                f"(0..{self.words - 1})")
