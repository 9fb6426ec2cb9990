"""Tests for the Machine facade itself."""

import pytest

from repro import Machine, SystemConfig, VariantSpec
from repro.engine.errors import ConfigError
from repro.scenarios import build_machine, default_spec, get_workload

from ..conftest import (
    increment_kernel_amo, increment_kernel_wait, make_machine)


def test_construction_wires_all_components():
    machine = make_machine(16, VariantSpec.colibri())
    assert len(machine.cores) == 16
    assert len(machine.banks) == machine.config.num_banks == 64
    assert len(machine.apis) == 16
    assert machine.stats.cores[3].core_id == 3
    assert machine.stats.banks[5].bank_id == 5
    # Controllers are built on first touch; stats cover every bank.
    assert machine.banks.built == []
    assert [bank.bank_id for bank in machine.stats.banks] == list(range(64))
    assert machine.banks[-1] is machine.banks[63]
    assert machine.banks[-64].bank_id == 0
    for bad in (64, -65):
        with pytest.raises(IndexError):
            machine.banks[bad]
    assert machine.banks.built == [0, 63]
    assert [bank.bank_id for bank in machine.banks] == list(range(64))
    assert machine.banks.built == list(range(64))


def test_only_touched_banks_are_built():
    spec = default_spec("histogram", num_cores=64,
                        variant="lrscwait:ideal").with_params(bins=1)
    machine = build_machine(spec)
    loaded = get_workload("histogram").load(machine, spec)
    stats = machine.run()
    loaded.verify()
    # One bin lives in bank 0: the other 255 controllers never exist.
    assert machine.banks.built == [0]
    assert len(stats.banks) == machine.config.num_banks == 256
    assert stats.banks[0].accesses > 0
    assert sum(bank.accesses for bank in stats.banks[1:]) == 0


def test_invalid_config_rejected_at_construction():
    bad = SystemConfig(num_cores=10, cores_per_tile=4)
    with pytest.raises(ConfigError):
        Machine(bad, VariantSpec.amo())


def test_poke_peek_array_roundtrip():
    machine = make_machine(4, VariantSpec.amo())
    base = machine.allocator.alloc_interleaved(6)
    machine.poke_array(base, [10, 20, 30, 40, 50, 60])
    assert machine.peek_array(base, 6) == [10, 20, 30, 40, 50, 60]
    machine.poke(base + 8, 99)
    assert machine.peek(base + 8) == 99


def test_load_range_loads_exactly_those_cores():
    machine = make_machine(8, VariantSpec.amo())
    counter = machine.allocator.alloc_interleaved(1)
    machine.load_range([1, 3, 5], increment_kernel_amo(counter, 2))
    machine.run()
    assert machine.peek(counter) == 6
    assert machine.cores[1].finished
    assert not machine.cores[0].finished  # never loaded


def test_run_for_freezes_endless_kernels():
    machine = make_machine(4, VariantSpec.amo())
    counter = machine.allocator.alloc_interleaved(1)

    def endless(api):
        while True:
            yield from api.amo_add(counter, 1)
            yield from api.retire()

    machine.load_all(endless)
    stats = machine.run_for(500)
    assert stats.cycles == 500
    assert stats.total_ops > 0
    assert not machine.cores[0].finished


def test_run_until_finished_stops_pollers():
    machine = make_machine(4, VariantSpec.amo())
    counter = machine.allocator.alloc_interleaved(1)
    flag = machine.allocator.alloc_interleaved(1)

    def finite(api):
        yield from api.compute(100)
        yield from api.sw(flag, 1)

    def endless(api):
        while True:
            yield from api.amo_add(counter, 1)

    machine.load(0, finite)
    machine.load(1, endless)
    machine.run_until_finished([0])
    assert machine.cores[0].finished
    assert not machine.cores[1].finished
    assert machine.peek(flag) == 1

    # Watched cores finishing out of order: the run stops at the event
    # that finishes the last of them (cycle and count recorded before
    # the stop check became incremental).
    machine = make_machine(4, VariantSpec.amo())
    counter = machine.allocator.alloc_interleaved(1)

    def delayed(cycles):
        def kernel(api):
            yield from api.compute(cycles)
            yield from api.amo_add(counter, 1)
        return kernel

    for core_id, cycles in ((0, 300), (1, 40), (2, 170)):
        machine.load(core_id, delayed(cycles))
    machine.load(3, endless)     # late-bound: polls the new counter
    stats = machine.run_until_finished([0, 1, 2])
    assert [machine.cores[i].finish_cycle for i in range(3)] == [303, 43, 173]
    assert stats.cycles == machine.sim.now == 303
    assert machine.peek(counter) == 103


def test_makespan_uses_last_finisher():
    machine = make_machine(4, VariantSpec.amo())

    def quick(api):
        yield from api.compute(10)

    def slow(api):
        yield from api.compute(500)

    machine.load(0, quick)
    machine.load(1, slow)
    stats = machine.run()
    assert stats.cycles == 500


def test_stats_shared_with_components():
    machine = make_machine(4, VariantSpec.amo())
    counter = machine.allocator.alloc_interleaved(1)
    machine.load_all(increment_kernel_amo(counter, 3))
    stats = machine.run()
    assert stats is machine.stats
    assert sum(b.accesses for b in stats.banks) > 0


@pytest.mark.parametrize("addr, message", [
    (6, "misaligned access: 0x6 \\(word size 4\\)"),
    (None, "outside SPM"),          # None: the first byte past the end
])
def test_bad_address_in_a_simulated_request_fails_at_issue(addr, message):
    from repro.engine.errors import MemoryError_

    machine = make_machine(16, VariantSpec.colibri())
    target = machine.config.memory_bytes if addr is None else addr

    def kernel(api):
        yield from api.lw(target)

    machine.load(0, kernel)
    with pytest.raises(MemoryError_, match=message):
        machine.run()
    # The request was issued and counted, but never reached the network.
    assert machine.sim.now == 1
    assert machine.stats.cores[0].requests == {"lw": 1}
    assert machine.stats.network.messages == {}


def test_inline_counters_match_the_hook_streams():
    # Core._issue and the network's send paths bump the counters in
    # place; tallying the ``message`` and ``response`` hook streams
    # must give the same counts.
    machine = make_machine(16, VariantSpec.colibri())
    counter = machine.allocator.alloc_interleaved(1)
    messages, hops = {}, [0]
    requests = [{} for _ in range(16)]

    def on_message(cycle, kind, cls, latency, hop_count):
        messages[kind] = messages.get(kind, 0) + 1
        hops[0] += hop_count

    def on_response(cycle, core_id, resp, waited):
        mnemonic = resp.op.value
        requests[core_id][mnemonic] = requests[core_id].get(mnemonic, 0) + 1

    machine.telemetry.subscribe("message", on_message)
    machine.telemetry.subscribe("response", on_response)
    machine.load_all(increment_kernel_wait(counter, 3))
    stats = machine.run()

    assert machine.peek(counter) == 48
    assert {"successor_update", "wakeup_request"} <= set(
        stats.network.messages)
    assert messages == stats.network.messages
    assert hops[0] == stats.network.hops
    assert requests == [c.requests for c in stats.cores]
