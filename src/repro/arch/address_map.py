"""Word-interleaved address-to-bank mapping.

MemPool interleaves the shared L1 word-wise across all banks so that
sequential accesses spread over the whole system.  The map here is the
same: word index ``w`` lives in bank ``w % num_banks`` at row
``w // num_banks``.

The inverse mapping (:meth:`AddressMap.address_of`) lets allocators
place data in a *specific* bank, which the workloads use to give each
core tile-local MCS nodes, exactly as bare-metal MemPool software does.
"""

from __future__ import annotations

from ..engine.errors import MemoryError_
from .config import SystemConfig


class AddressMap:
    """Maps byte addresses to (bank, row) and back."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.word_bytes = config.word_bytes
        self.num_banks = config.num_banks
        self.words_per_bank = config.words_per_bank
        self.memory_bytes = config.memory_bytes

    # -- forward mapping -------------------------------------------------------

    def check(self, addr: int) -> None:
        """Validate alignment and range of a byte address."""
        if addr % self.word_bytes:
            raise MemoryError_(
                f"misaligned access: 0x{addr:x} (word size {self.word_bytes})")
        if not 0 <= addr < self.memory_bytes:
            raise MemoryError_(
                f"address 0x{addr:x} outside SPM of {self.memory_bytes} bytes")

    def word_index(self, addr: int) -> int:
        """Global word index of a byte address."""
        self.check(addr)
        return addr // self.word_bytes

    def bank_of(self, addr: int) -> int:
        """Bank holding the given byte address.

        Decodes in one call (every request pays it): the alignment and
        range tests run inline and :meth:`check` runs only on failure,
        to raise its error.
        """
        if addr % self.word_bytes or not 0 <= addr < self.memory_bytes:
            self.check(addr)
        return addr // self.word_bytes % self.num_banks

    def row_of(self, addr: int) -> int:
        """Row (word offset inside its bank) of the given byte address."""
        return self.word_index(addr) // self.num_banks

    def locate(self, addr: int) -> tuple:
        """``(bank, row)`` of the given byte address (one call, as
        :meth:`bank_of`)."""
        if addr % self.word_bytes or not 0 <= addr < self.memory_bytes:
            self.check(addr)
        word = addr // self.word_bytes
        return word % self.num_banks, word // self.num_banks

    # -- inverse mapping ---------------------------------------------------------

    def address_of(self, bank: int, row: int) -> int:
        """Byte address stored at ``row`` of ``bank``."""
        if not 0 <= bank < self.num_banks:
            raise MemoryError_(f"bank {bank} out of range")
        if not 0 <= row < self.words_per_bank:
            raise MemoryError_(f"row {row} out of range")
        return (row * self.num_banks + bank) * self.word_bytes
