"""Coverage of every CoreApi instruction through a live machine."""

import random

import pytest

from repro import VariantSpec
from repro.interconnect.messages import Status

from ..conftest import make_machine


def run_one(machine, kernel):
    machine.load(0, kernel)
    machine.run()


@pytest.fixture
def amo_machine():
    return make_machine(4, VariantSpec.amo())


def test_every_amo_returns_old_value(amo_machine):
    machine = amo_machine
    addr = machine.allocator.alloc_interleaved(1)
    machine.poke(addr, 12)
    observed = {}

    def kernel(api):
        observed["add"] = yield from api.amo_add(addr, 3)       # 12 -> 15
        observed["swap"] = yield from api.amo_swap(addr, 0b1100)  # 15 -> 12
        observed["and"] = yield from api.amo_and(addr, 0b1010)  # 12 -> 8
        observed["or"] = yield from api.amo_or(addr, 0b0001)    # 8 -> 9
        observed["xor"] = yield from api.amo_xor(addr, 0b1111)  # 9 -> 6
        observed["max"] = yield from api.amo_max(addr, 2)       # 6 -> 6
        observed["min"] = yield from api.amo_min(addr, 2)       # 6 -> 2

    run_one(machine, kernel)
    assert observed == {"add": 12, "swap": 15, "and": 12, "or": 8,
                        "xor": 9, "max": 6, "min": 6}
    assert machine.peek(addr) == 2


def test_amo_min_signed_through_api(amo_machine):
    machine = amo_machine
    addr = machine.allocator.alloc_interleaved(1)

    def kernel(api):
        yield from api.amo_min(addr, -3)

    run_one(machine, kernel)
    assert machine.bank_word_signed(addr) == -3 if hasattr(
        machine, "bank_word_signed") else machine.peek(addr) == 0xFFFF_FFFD


def test_compute_zero_is_free(amo_machine):
    machine = amo_machine

    def kernel(api):
        yield from api.compute(0)
        yield from api.compute(-5)

    run_one(machine, kernel)
    assert machine.stats.cores[0].active_cycles == 0


def test_rng_is_per_core_and_seeded():
    machine_a = make_machine(8, VariantSpec.amo(), seed=4)
    machine_b = make_machine(8, VariantSpec.amo(), seed=4)
    draws_a = [machine_a.apis[i].rng.randrange(1000) for i in range(8)]
    draws_b = [machine_b.apis[i].rng.randrange(1000) for i in range(8)]
    assert draws_a == draws_b          # same seed, same streams
    assert len(set(draws_a)) > 1       # per-core streams differ


def test_api_exposes_identity():
    machine = make_machine(8, VariantSpec.amo())
    api = machine.apis[5]
    assert api.core_id == 5
    assert api.num_cores == 8


def test_mwait_returns_full_response():
    machine = make_machine(4, VariantSpec.colibri())
    addr = machine.allocator.alloc_interleaved(1)
    machine.poke(addr, 9)
    seen = {}

    def kernel(api):
        resp = yield from api.mwait(addr, expected=5)  # already differs
        seen["status"] = resp.status
        seen["value"] = resp.value

    run_one(machine, kernel)
    assert seen == {"status": Status.OK, "value": 9}


def test_lrwait_response_carries_queue_full():
    machine = make_machine(8, VariantSpec.colibri(num_addresses=1))
    # Two addresses in the same bank: second queue cannot allocate
    # while the first is held.
    stride = machine.config.num_banks * machine.config.word_bytes
    addr_a = machine.allocator.alloc_in_bank(0)
    addr_b = machine.allocator.alloc_in_bank(0)
    assert addr_b != addr_a and addr_b % stride == addr_a % stride
    statuses = []

    def holder(api):
        resp = yield from api.lrwait(addr_a)
        yield from api.compute(60)
        yield from api.scwait(addr_a, resp.value)

    def prober(api):
        yield from api.compute(10)  # let the holder win the slot
        resp = yield from api.lrwait(addr_b)
        statuses.append(resp.status)
        if resp.status is Status.OK:
            yield from api.scwait(addr_b, resp.value)

    machine.load(0, holder)
    machine.load(1, prober)
    machine.run()
    assert statuses == [Status.QUEUE_FULL]


def test_rng_is_seeded_only_when_a_kernel_draws():
    machine = make_machine(256, VariantSpec.amo(), seed=5)
    drawn = {}

    def kernel(api):
        if api.core_id in (3, 200):
            drawn[api.core_id] = [api.rng.randrange(1 << 30)
                                  for _ in range(4)]
            yield from api.compute(1 + api.rng.randrange(8))
        else:
            yield from api.compute(2)

    machine.load_all(kernel)
    assert not any("rng" in vars(api) for api in machine.apis)
    machine.run()
    assert [core_id for core_id, api in enumerate(machine.apis)
            if "rng" in vars(api)] == [3, 200]
    # The lazy stream is the one an eagerly seeded RNG would draw.
    for core_id, values in drawn.items():
        eager = random.Random((5 << 20) ^ core_id)
        assert values == [eager.randrange(1 << 30) for _ in range(4)]
