"""Unit tests for statistics containers."""

from repro import VariantSpec
from repro.engine.stats import BankStats, CoreStats, SimStats

from ..conftest import increment_kernel_wait, make_machine


def _wait_run():
    """4 cores (one tile), 2 LRwait/SCwait increments each."""
    machine = make_machine(4, VariantSpec.lrscwait(4))
    counter = machine.allocator.alloc_interleaved(1)
    machine.load_all(increment_kernel_wait(counter, 2))
    return machine.run()


def test_core_stats_request_counting():
    stats = _wait_run()
    for core in stats.cores:
        assert core.requests == {"lrwait": 2, "scwait": 2}
        assert core.total_requests == 4
    assert stats.total_requests == 16


def test_core_stats_total_cycles():
    stats = CoreStats()
    stats.active_cycles = 10
    stats.stalled_cycles = 5
    stats.sleep_cycles = 100
    assert stats.total_cycles == 115


def test_bank_conflict_rate():
    stats = BankStats()
    assert stats.conflict_rate == 0.0
    stats.accesses = 10
    stats.conflicts = 3
    assert stats.conflict_rate == 0.3


def test_network_message_counting():
    network = _wait_run().network
    assert network.messages == {"lrwait": 8, "resp_lrwait": 8,
                                "scwait": 8, "resp_scwait": 8}
    assert network.total_messages == 32
    assert network.hops == 32  # one tile: every route is one hop


def _sim_stats_with_ops(ops_list):
    stats = SimStats(cores=[CoreStats(core_id=i) for i in range(len(ops_list))])
    for core, ops in zip(stats.cores, ops_list):
        core.ops_completed = ops
    return stats


def test_throughput():
    stats = _sim_stats_with_ops([5, 5])
    stats.cycles = 100
    assert stats.throughput == 0.1


def test_throughput_zero_cycles():
    stats = _sim_stats_with_ops([5])
    assert stats.throughput == 0.0


def test_fairness_range_ignores_idle_cores():
    stats = _sim_stats_with_ops([0, 10, 20])
    assert stats.fairness_range() == (10, 20)


def test_jain_fairness_perfect():
    stats = _sim_stats_with_ops([7, 7, 7, 7])
    assert abs(stats.jain_fairness() - 1.0) < 1e-12


def test_jain_fairness_single_hog():
    stats = _sim_stats_with_ops([100, 0, 0, 0])
    assert abs(stats.jain_fairness() - 0.25) < 1e-12


def test_jain_fairness_no_ops_is_neutral():
    stats = _sim_stats_with_ops([0, 0])
    assert stats.jain_fairness() == 1.0


def test_aggregates_sum_over_cores():
    stats = _sim_stats_with_ops([1, 2])
    stats.cores[0].sc_failures = 3
    stats.cores[1].sc_failures = 4
    stats.cores[0].active_cycles = 10
    stats.cores[1].sleep_cycles = 20
    stats.cores[0].requests["lr"] = 1
    assert stats.total_sc_failures == 7
    assert stats.total_active_cycles == 10
    assert stats.total_sleep_cycles == 20
    assert stats.total_requests == 1
    assert stats.total_ops == 3
