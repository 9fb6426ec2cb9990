"""Tests for the parallel experiment runner and its result cache.

The contract under test: sharding a sweep across workers changes *how*
points are computed, never *what* comes back — results are ordered,
deterministic, and byte-identical to a serial run — and the cache is
keyed by configuration, so edits invalidate exactly the points they
touch.
"""

import pickle

import pytest

from repro.eval.fig3 import run_fig3
from repro.eval.harness import SeriesSpec, run_histogram_point, sweep_bins
from repro.eval.runner import (
    ExperimentCall,
    ResultCache,
    resolve_jobs,
    run_experiments,
)

#: A tiny but real experiment configuration (fast enough for CI).
SPEC = SeriesSpec("Atomic Add", "amo", "amo")


def _call(num_bins=2, updates=3, seed=0):
    return ExperimentCall(run_histogram_point, (SPEC, 8, num_bins, updates),
                          {"seed": seed})


# -- ordering and determinism -------------------------------------------------

def test_results_come_back_in_call_order():
    calls = [_call(num_bins=b) for b in (4, 1, 2)]
    results = run_experiments(calls, jobs=1)
    assert [p.num_bins for p in results] == [4, 1, 2]


def test_parallel_results_identical_to_serial():
    calls = [_call(num_bins=b) for b in (1, 2, 4)]
    serial = run_experiments(calls, jobs=1)
    parallel = run_experiments(calls, jobs=3)
    # Dataclass value equality, plus per-point pickle identity (the
    # whole-list pickles differ only in memo structure when results
    # cross a process boundary, never in content).
    assert serial == parallel
    for ours, theirs in zip(serial, parallel):
        assert pickle.dumps(ours) == pickle.dumps(theirs)


def test_sweep_bins_identical_for_any_jobs():
    kwargs = dict(num_cores=8, bins_list=[1, 4], updates_per_core=3)
    serial = sweep_bins([SPEC], jobs=1, **kwargs)
    parallel = sweep_bins([SPEC], jobs=4, **kwargs)
    assert serial == parallel


def test_figure_runner_identical_for_any_jobs():
    kwargs = dict(num_cores=16, bins_list=[1, 8], updates_per_core=4)
    serial = run_fig3(jobs=1, **kwargs)
    parallel = run_fig3(jobs=2, **kwargs)
    assert serial.render() == parallel.render()
    assert serial.throughput_series() == parallel.throughput_series()


def test_resolve_jobs_semantics():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-1)


# -- caching ------------------------------------------------------------------

def test_cache_hit_skips_recomputation(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))
    calls = [_call(num_bins=1), _call(num_bins=2)]
    first = run_experiments(calls, jobs=1, cache=cache)
    assert (cache.misses, cache.stores) == (2, 2)

    # Re-running must not simulate at all: poison the experiment fn.
    def boom(*_args, **_kwargs):
        raise AssertionError("cache miss: point was re-simulated")

    monkeypatch.setattr(ExperimentCall, "invoke", boom)
    second = run_experiments(calls, jobs=1, cache=cache)
    assert cache.hits == 2
    assert pickle.dumps(first) == pickle.dumps(second)


def test_cache_survives_process_boundary(tmp_path):
    """A fresh ResultCache over the same directory reuses disk entries."""
    first = run_experiments([_call()], jobs=1, cache=ResultCache(str(tmp_path)))
    reopened = ResultCache(str(tmp_path))
    second = run_experiments([_call()], jobs=1, cache=reopened)
    assert reopened.hits == 1 and reopened.misses == 0
    assert pickle.dumps(first) == pickle.dumps(second)


def test_config_change_invalidates_only_changed_points(tmp_path):
    cache = ResultCache(str(tmp_path))
    run_experiments([_call(num_bins=1), _call(num_bins=2)], jobs=1,
                    cache=cache)
    # One point's config changes (different seed); the other must hit.
    cache2 = ResultCache(str(tmp_path))
    run_experiments([_call(num_bins=1), _call(num_bins=2, seed=9)], jobs=1,
                    cache=cache2)
    assert cache2.hits == 1
    assert cache2.misses == 1


def test_config_key_is_stable_and_discriminating():
    assert _call().config_key() == _call().config_key()
    assert _call().config_key() != _call(num_bins=4).config_key()
    assert _call().config_key() != _call(seed=1).config_key()
    other_series = ExperimentCall(
        run_histogram_point,
        (SeriesSpec("LRSC", "lrsc", "lrsc"), 8, 2, 3), {"seed": 0})
    assert _call().config_key() != other_series.config_key()


def test_source_edit_invalidates_cache(tmp_path):
    """Cached numbers must not survive simulator-code changes."""
    cache = ResultCache(str(tmp_path))
    run_experiments([_call()], jobs=1, cache=cache)
    # Same directory, different source fingerprint (as after an edit).
    edited = ResultCache(str(tmp_path), fingerprint="deadbeef")
    run_experiments([_call()], jobs=1, cache=edited)
    assert (edited.hits, edited.misses) == (0, 1)
    # Unchanged sources still hit.
    same = ResultCache(str(tmp_path))
    assert same.fingerprint == cache.fingerprint
    run_experiments([_call()], jobs=1, cache=same)
    assert same.hits == 1


def test_cache_write_failure_degrades_gracefully(tmp_path, monkeypatch):
    """A full/read-only disk must not discard computed results."""
    import repro.eval.runner as runner_module
    cache = ResultCache(str(tmp_path))

    def disk_full(*_args, **_kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(runner_module.os, "replace", disk_full)
    results = run_experiments([_call()], jobs=1, cache=cache)
    assert results[0].throughput > 0
    assert cache.write_errors == 1 and cache.stores == 0


#: Pickles that cannot be loaded any more: a class whose module is gone
#: (``ModuleNotFoundError``) and one whose attribute is gone
#: (``AttributeError``) — what a renamed or deleted result class leaves
#: behind in an old cache directory.
UNLOADABLE = {
    "missing-module": b"crepro_no_such_module\nResult\n.",
    "missing-attribute": b"crepro.eval.runner\nNoSuchResult\n.",
}


@pytest.mark.parametrize("payload", sorted(UNLOADABLE))
def test_unloadable_entry_is_a_counted_miss(tmp_path, payload):
    cache = ResultCache(str(tmp_path))
    with open(cache._file(cache._key_for("point")), "wb") as handle:
        handle.write(UNLOADABLE[payload])
    sentinel = object()
    assert cache.lookup_hash("point", sentinel) is sentinel
    assert (cache.hits, cache.misses) == (0, 1)


@pytest.mark.parametrize("payload", sorted(UNLOADABLE))
def test_unloadable_entry_is_recomputed_by_experiment_calls(tmp_path,
                                                           payload):
    """The ExperimentCall ``lookup`` path shares the miss handling."""
    cache = ResultCache(str(tmp_path))
    call = _call()
    with open(cache._file(cache._key(call)), "wb") as handle:
        handle.write(UNLOADABLE[payload])
    results = run_experiments([call], jobs=1, cache=cache)
    assert results[0].throughput > 0
    assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
    # The recomputed result replaced the unloadable entry.
    reopened = ResultCache(str(tmp_path))
    run_experiments([call], jobs=1, cache=reopened)
    assert (reopened.hits, reopened.misses) == (1, 0)


def test_interrupt_while_loading_an_entry_propagates(tmp_path,
                                                     monkeypatch):
    import repro.eval.runner as runner_module
    cache = ResultCache(str(tmp_path))
    run_experiments([_call()], jobs=1, cache=cache)

    def interrupted(_handle):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_module.pickle, "load", interrupted)
    with pytest.raises(KeyboardInterrupt):
        ResultCache(str(tmp_path)).lookup(_call())


def test_cache_clear_drops_entries(tmp_path):
    cache = ResultCache(str(tmp_path))
    run_experiments([_call()], jobs=1, cache=cache)
    cache.clear()
    run_experiments([_call()], jobs=1, cache=cache)
    assert cache.misses == 2


def test_parallel_run_populates_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    calls = [_call(num_bins=b) for b in (1, 2)]
    run_experiments(calls, jobs=2, cache=cache)
    assert cache.stores == 2
    rerun = ResultCache(str(tmp_path))
    run_experiments(calls, jobs=2, cache=rerun)
    assert rerun.hits == 2


# -- size management (LRU pruning) --------------------------------------------


def test_max_entries_bounds_the_store(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="t", max_entries=2)
    for hash_key, value in (("a", 1), ("b", 2), ("c", 3)):
        cache.store_hash(hash_key, value)
    assert cache.stats()["entries"] == 2
    assert cache.evictions == 1


def test_prune_evicts_least_recently_used(tmp_path):
    import os
    cache = ResultCache(str(tmp_path), fingerprint="t")
    for offset, hash_key in enumerate(("a", "b", "c")):
        cache.store_hash(hash_key, hash_key)
        # Spread mtimes coarsely: filesystem timestamp granularity
        # would otherwise make the LRU order a coin flip.
        os.utime(cache._file(cache._key_for(hash_key)),
                 (offset, offset))
    # A hit on the oldest entry refreshes it, demoting "b".
    assert cache.lookup_hash("a") == "a"
    assert cache.prune(2) == 1
    miss = object()
    fresh = ResultCache(str(tmp_path), fingerprint="t")
    assert fresh.lookup_hash("b", miss) is miss
    assert fresh.lookup_hash("a") == "a"
    assert fresh.lookup_hash("c") == "c"


def test_prune_without_limit_is_a_noop(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="t")
    cache.store_hash("a", 1)
    assert cache.prune() == 0
    assert cache.stats()["entries"] == 1


def test_pruned_entries_leave_memory_too(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="t")
    cache.store_hash("a", 1)
    cache.prune(0)
    miss = object()
    assert cache.lookup_hash("a", miss) is miss


def test_stats_reports_footprint(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="t", max_entries=8)
    cache.store_hash("a", list(range(100)))
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
    assert stats["max_entries"] == 8
    assert stats["stores"] == 1


def test_max_entries_rejects_nonpositive(tmp_path):
    with pytest.raises(ValueError):
        ResultCache(str(tmp_path), fingerprint="t", max_entries=0)


def test_auto_prune_evicts_with_slack_for_amortization(tmp_path):
    """At capacity, eviction overshoots by ~5% so the directory scan
    does not repeat on every store."""
    cache = ResultCache(str(tmp_path), fingerprint="t", max_entries=40)
    for index in range(41):
        cache.store_hash(f"k{index}", index)
    # Evicted down to 40 - 40//20 = 38, never above the bound.
    assert cache.stats()["entries"] == 38
    assert cache.evictions == 3


# -- CLI plumbing -------------------------------------------------------------

def test_cli_parses_jobs_flag():
    from repro.cli import build_parser
    args = build_parser().parse_args(["reproduce", "--jobs", "4"])
    assert args.jobs == 4
    args = build_parser().parse_args(["energy", "--jobs", "0"])
    assert args.jobs == 0
    # Default stays serial.
    args = build_parser().parse_args(["reproduce"])
    assert args.jobs == 1 and args.cache_dir is None


def test_cli_passes_jobs_through_to_runners(monkeypatch, capsys):
    """``repro reproduce --jobs N`` must reach every sweep runner."""
    import repro.cli as cli
    seen = {}

    class _Rendered:
        def render(self):
            return "stub"

    def record(name):
        def fake(*_args, jobs=None, cache=None, **_kwargs):
            seen[name] = (jobs, cache)
            return _Rendered()
        return fake

    monkeypatch.setattr(cli, "run_table2", record("table2"))
    monkeypatch.setattr(cli, "run_fig3", record("fig3"))
    monkeypatch.setattr(cli, "run_fig4", record("fig4"))
    monkeypatch.setattr(cli, "run_fig5", record("fig5"))
    monkeypatch.setattr(cli, "run_fig6", record("fig6"))
    assert cli.main(["reproduce", "--jobs", "3"]) == 0
    capsys.readouterr()
    assert {name: value[0] for name, value in seen.items()} == {
        "table2": 3, "fig3": 3, "fig4": 3, "fig5": 3, "fig6": 3}
    assert all(value[1] is None for value in seen.values())


def test_cli_cache_dir_builds_cache(monkeypatch, capsys, tmp_path):
    import repro.cli as cli
    captured = {}

    class _Rendered:
        def render(self):
            return "stub"

    def fake(*_args, jobs=None, cache=None, **_kwargs):
        captured["cache"] = cache
        return _Rendered()

    monkeypatch.setattr(cli, "run_table2", fake)
    assert cli.main(["energy", "--cores", "8", "--updates", "2",
                     "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert isinstance(captured["cache"], ResultCache)
    assert captured["cache"].path == str(tmp_path)
