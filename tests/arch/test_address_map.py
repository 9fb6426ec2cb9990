"""Unit tests for the word-interleaved address map."""

import pytest

from repro.arch.address_map import AddressMap
from repro.arch.config import SystemConfig
from repro.engine.errors import MemoryError_


@pytest.fixture
def amap():
    return AddressMap(SystemConfig.scaled(16))


def test_consecutive_words_hit_consecutive_banks(amap):
    banks = [amap.bank_of(addr) for addr in range(0, 16 * 4, 4)]
    assert banks == list(range(16))


def test_wraps_to_next_row(amap):
    num_banks = amap.num_banks
    addr = num_banks * 4  # first word of row 1
    assert amap.bank_of(addr) == 0
    assert amap.row_of(addr) == 1


def test_locate_and_address_of_are_inverse(amap):
    for bank in (0, 1, amap.num_banks - 1):
        for row in (0, 5, amap.words_per_bank - 1):
            addr = amap.address_of(bank, row)
            assert amap.locate(addr) == (bank, row)


def test_misaligned_access_rejected(amap):
    with pytest.raises(MemoryError_):
        amap.bank_of(2)


def test_out_of_range_rejected(amap):
    with pytest.raises(MemoryError_):
        amap.bank_of(amap.memory_bytes)
    with pytest.raises(MemoryError_):
        amap.bank_of(-4)


def test_address_of_range_checks(amap):
    with pytest.raises(MemoryError_):
        amap.address_of(amap.num_banks, 0)
    with pytest.raises(MemoryError_):
        amap.address_of(0, amap.words_per_bank)


def test_every_word_maps_uniquely(amap):
    seen = set()
    for word in range(0, amap.num_banks * 2):
        location = amap.locate(word * 4)
        assert location not in seen
        seen.add(location)


@pytest.mark.parametrize("decode", ["bank_of", "locate"])
@pytest.mark.parametrize("offset, message", [
    (2, "misaligned access: 0x2"),
    (-4, "outside SPM"),
    (-2, "misaligned access"),
    (None, "outside SPM"),          # None: the first byte past the end
])
def test_one_call_decoders_raise_the_checked_errors(amap, decode, offset,
                                                    message):
    addr = amap.memory_bytes if offset is None else offset
    with pytest.raises(MemoryError_, match=message):
        getattr(amap, decode)(addr)


def test_one_call_decoders_agree_with_word_index(amap):
    for addr in (0, 4, amap.num_banks * 4 + 8, amap.memory_bytes - 4):
        word = amap.word_index(addr)
        assert amap.bank_of(addr) == word % amap.num_banks
        assert amap.locate(addr) == (word % amap.num_banks,
                                     word // amap.num_banks)
