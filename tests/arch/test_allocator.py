"""Unit tests for the SPM allocator."""

import pytest

from repro.arch.allocator import Allocator
from repro.arch.config import SystemConfig
from repro.engine.errors import MemoryError_


@pytest.fixture
def alloc():
    return Allocator(SystemConfig.scaled(16))


def test_interleaved_spreads_across_banks(alloc):
    base = alloc.alloc_interleaved(8)
    banks = [alloc.address_map.bank_of(base + i * 4) for i in range(8)]
    assert banks == list(range(8))


def test_interleaved_allocations_do_not_overlap(alloc):
    first = alloc.alloc_interleaved(10)
    second = alloc.alloc_interleaved(10)
    first_words = {first + i * 4 for i in range(10)}
    second_words = {second + i * 4 for i in range(10)}
    assert not first_words & second_words


def test_row_aligned_starts_at_bank_zero(alloc):
    alloc.alloc_interleaved(3)  # misalign the low watermark
    base = alloc.alloc_row_aligned(4)
    assert alloc.address_map.bank_of(base) == 0


def test_alloc_in_bank_pins_bank(alloc):
    addr = alloc.alloc_in_bank(5, 3)
    stride = alloc.config.num_banks * 4
    for i in range(3):
        assert alloc.address_map.bank_of(addr + i * stride) == 5


def test_alloc_core_local_lands_in_core_tile(alloc):
    for core_id in range(alloc.config.num_cores):
        addr = alloc.alloc_core_local(core_id)
        bank = alloc.address_map.bank_of(addr)
        assert bank in alloc.topology.local_banks_of_core(core_id)


def test_pinned_allocations_do_not_collide(alloc):
    seen = set()
    for _ in range(10):
        addr = alloc.alloc_in_bank(2)
        assert addr not in seen
        seen.add(addr)


def test_bank_exhaustion_raises(alloc):
    words = alloc.config.words_per_bank
    alloc.alloc_in_bank(0, words)
    with pytest.raises(MemoryError_):
        alloc.alloc_in_bank(0, 1)


# 16 cores: 64 banks of 256 words.  Each case: allocations in order,
# the index of the one that collides, and the row pair it reports.
_COLLISIONS = [
    # Fill nearly everything interleaved, then pin into the remainder.
    ([("alloc_interleaved", 16384 - 64), ("alloc_in_bank", 0, 2)],
     1, (255, 254)),
    # Pinned rows in several banks (bank 3 lowest), then interleaved
    # growth up to them.
    ([("alloc_in_bank", 3, 5), ("alloc_in_bank", 17, 2),
      ("alloc_in_bank", 3, 1), ("alloc_interleaved", 64 * 249),
      ("alloc_interleaved", 1), ("alloc_interleaved", 64)],
     5, (251, 250)),
    # Interleaved first; the deeper of two pinned banks collides.
    ([("alloc_interleaved", 64 * 252 + 5), ("alloc_in_bank", 9, 3),
      ("alloc_in_bank", 40, 4), ("alloc_in_bank", 9, 1)],
     2, (253, 252)),
]


def test_region_collision_detected(alloc):
    for steps, failing, rows in _COLLISIONS:
        fresh = Allocator(alloc.config)
        for method, *args in steps[:failing]:
            getattr(fresh, method)(*args)
        method, *args = steps[failing]
        message = ("SPM exhausted: interleaved and pinned regions "
                   "collided (low row {}, high row {})".format(*rows))
        with pytest.raises(MemoryError_) as excinfo:
            getattr(fresh, method)(*args)
        assert str(excinfo.value) == message


def test_zero_size_rejected(alloc):
    with pytest.raises(MemoryError_):
        alloc.alloc_interleaved(0)
    with pytest.raises(MemoryError_):
        alloc.alloc_in_bank(0, 0)


def test_words_free_decreases(alloc):
    before = alloc.words_free
    alloc.alloc_interleaved(64)
    assert alloc.words_free < before
