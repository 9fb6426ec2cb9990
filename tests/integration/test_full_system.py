"""Full-stack integration tests across subsystems."""

import pytest

from repro import Machine, SystemConfig, VariantSpec
from repro.telemetry.trace import Tracer
from repro.interconnect.messages import Status
from repro.sync.locks import MwaitMcsLock

from ..conftest import (
    increment_kernel_amo,
    increment_kernel_lrsc,
    increment_kernel_wait,
    make_machine,
)


def test_determinism_same_seed_same_everything():
    def run():
        machine = make_machine(16, VariantSpec.colibri(), seed=77)
        counter = machine.allocator.alloc_interleaved(1)
        machine.load_all(increment_kernel_wait(counter, 5))
        stats = machine.run()
        return (stats.cycles, stats.total_sleep_cycles,
                stats.network.total_messages,
                tuple(c.ops_completed for c in stats.cores))

    assert run() == run()


def test_different_seeds_differ():
    def run(seed):
        machine = make_machine(16, VariantSpec.lrsc(), seed=seed)
        counter = machine.allocator.alloc_interleaved(1)
        machine.load_all(increment_kernel_lrsc(counter, 5))
        return machine.run().cycles

    assert run(1) != run(2)


def test_all_variants_agree_on_final_memory():
    """The same logical program produces the same memory contents on
    every hardware variant — only timing differs."""
    results = {}
    for name, variant, builder in [
        ("amo", VariantSpec.amo(), increment_kernel_amo),
        ("lrsc", VariantSpec.lrsc(), increment_kernel_lrsc),
        ("wait_ideal", VariantSpec.lrscwait_ideal(), increment_kernel_wait),
        ("wait_1", VariantSpec.lrscwait(1), increment_kernel_wait),
        ("colibri", VariantSpec.colibri(), increment_kernel_wait),
    ]:
        machine = make_machine(8, variant, seed=5)
        counter = machine.allocator.alloc_interleaved(1)
        machine.load_all(builder(counter, 6))
        machine.run()
        results[name] = machine.peek(counter)
    assert set(results.values()) == {48}


def test_colibri_sleeps_lrsc_polls():
    """The headline mechanism: same contention, Colibri cores sleep
    while LRSC cores burn active cycles and network messages."""
    def run(variant, builder):
        machine = make_machine(16, variant, seed=9)
        counter = machine.allocator.alloc_interleaved(1)
        machine.load_all(builder(counter, 5))
        return machine.run()

    colibri = run(VariantSpec.colibri(), increment_kernel_wait)
    lrsc = run(VariantSpec.lrsc(), increment_kernel_lrsc)
    assert colibri.total_sleep_cycles > lrsc.total_sleep_cycles
    assert colibri.total_active_cycles < lrsc.total_active_cycles
    assert colibri.network.total_messages < lrsc.network.total_messages
    assert colibri.throughput > lrsc.throughput


def test_producer_consumer_with_mwait():
    """Mwait as §III-C motivates it: a consumer sleeps on a flag, the
    producer wakes it with one store — no polling traffic."""
    machine = make_machine(4, VariantSpec.colibri())
    flag = machine.allocator.alloc_interleaved(1)
    data = machine.allocator.alloc_interleaved(1)
    received = []

    def producer(api):
        yield from api.compute(200)
        yield from api.sw(data, 1234)
        yield from api.sw(flag, 1)

    def consumer(api):
        resp = yield from api.mwait(flag, expected=0)
        assert resp.status is Status.OK
        value = yield from api.lw(data)
        received.append(value)

    machine.load(0, producer)
    machine.load(1, consumer)
    stats = machine.run()
    assert received == [1234]
    assert stats.cores[1].sleep_cycles > 150  # slept, did not poll


def test_mwait_expected_value_closes_race():
    """If the store happens before the Mwait arrives, the expected
    value makes it return immediately instead of sleeping forever."""
    machine = make_machine(4, VariantSpec.colibri())
    flag = machine.allocator.alloc_interleaved(1)
    woken = []

    def producer(api):
        yield from api.sw(flag, 1)  # fires immediately

    def consumer(api):
        yield from api.compute(300)  # arrives long after the store
        resp = yield from api.mwait(flag, expected=0)
        woken.append(resp.value)

    machine.load(0, producer)
    machine.load(1, consumer)
    machine.run()
    assert woken == [1]


def test_mixed_workload_locks_and_rmw_coexist():
    """Half the cores use an MCS lock, half do raw Colibri RMW on a
    different variable; both finish and both invariants hold."""
    machine = make_machine(8, VariantSpec.colibri(), seed=3)
    lock = MwaitMcsLock.create(machine)
    locked_counter = machine.allocator.alloc_interleaved(1)
    rmw_counter = machine.allocator.alloc_interleaved(1)

    def locker(api):
        for _ in range(4):
            yield from lock.acquire(api)
            value = yield from api.lw(locked_counter)
            yield from api.sw(locked_counter, value + 1)
            yield from lock.release(api)

    def rmw(api):
        for _ in range(4):
            while True:
                resp = yield from api.lrwait(rmw_counter)
                if resp.status is Status.QUEUE_FULL:
                    yield from api.compute(8)
                    continue
                if (yield from api.scwait(rmw_counter, resp.value + 1)):
                    break

    machine.load_range(range(4), locker)
    machine.load_range(range(4, 8), rmw)
    machine.run()
    assert machine.peek(locked_counter) == 16
    assert machine.peek(rmw_counter) == 16


def test_tracer_observes_protocol_traffic():
    tracer = Tracer(enabled=True)
    machine = Machine(SystemConfig.scaled(4), VariantSpec.colibri(),
                      seed=1, tracer=tracer)
    counter = machine.allocator.alloc_interleaved(1)
    machine.load_all(increment_kernel_wait(counter, 2))
    machine.run()
    kinds = {record.kind for record in tracer.records}
    # Request traffic, protocol messages and queue lifecycle all show.
    assert {"lrwait", "scwait", "wakeup_request",
            "colibri_alloc", "colibri_free"} <= kinds
    # Allocation/free balance: every allocated queue was freed.
    allocs = sum(1 for r in tracer.records if r.kind == "colibri_alloc")
    frees = sum(1 for r in tracer.records if r.kind == "colibri_free")
    assert allocs == frees > 0
    # Cores announce their initial active state at load, so the
    # render leads with core records; bank traffic follows.
    assert "core" in tracer.render(limit=5)
    assert "bank" in tracer.render()


def test_tracer_kind_filter_reduces_volume():
    tracer = Tracer(enabled=True, kinds={"wakeup_request"})
    machine = Machine(SystemConfig.scaled(4), VariantSpec.colibri(),
                      seed=1, tracer=tracer)
    counter = machine.allocator.alloc_interleaved(1)
    machine.load_all(increment_kernel_wait(counter, 2))
    machine.run()
    assert tracer.records  # some wakeups happened
    assert all(r.kind == "wakeup_request" for r in tracer.records)


def test_grouped_system_runs_clean():
    """A 64-core system with four real groups exercises global routes."""
    machine = make_machine(64, VariantSpec.colibri(), seed=4)
    counter = machine.allocator.alloc_interleaved(1)
    machine.load_all(increment_kernel_wait(counter, 2))
    stats = machine.run()
    assert machine.peek(counter) == 128
    assert stats.network.messages.get("successor_update", 0) > 0
    assert stats.network.messages.get("wakeup_request", 0) > 0


def test_strict_mode_catches_scwait_without_lrwait():
    machine = make_machine(4, VariantSpec.colibri(), strict=True)
    addr = machine.allocator.alloc_interleaved(1)

    def bad(api):
        yield from api.scwait(addr, 1)

    machine.load(0, bad)
    with pytest.raises(Exception):
        machine.run()
