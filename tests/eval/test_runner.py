"""Tests for the one point runner and its result cache.

The contract under test: sharding a sweep across workers changes *how*
points are computed, never *what* comes back — results are ordered,
deterministic, and byte-identical to a serial run — and the cache is
keyed by each spec's ``stable_hash``, so edits invalidate exactly the
points they touch.
"""

import dataclasses
import os
import pickle

import pytest

import repro.scenarios.run as run_module
from repro.eval.fig3 import run_fig3
from repro.eval.harness import SeriesSpec, histogram_spec, run_bin_sweep
from repro.eval.runner import ResultCache, resolve_jobs
from repro.scenarios.run import (
    default_spec,
    run_scenarios,
    scenario_cache_key,
)

#: A tiny but real experiment configuration (fast enough for CI).
SPEC = SeriesSpec("Atomic Add", "amo", "amo")


def _spec(num_bins=2, updates=3, seed=0):
    return histogram_spec(SPEC, 8, num_bins, updates, seed=seed)


def _cached(results):
    """Results as a cache serves them: without the bulky ``stats``."""
    return [dataclasses.replace(result, stats=None) for result in results]


def _assert_identical(fresh, served):
    """Value equality plus per-point pickle identity (whole-result
    pickles differ only in memo structure once a result went through
    disk or a process boundary, never in content)."""
    assert _cached(fresh) == served
    for ours, theirs in zip(fresh, served):
        assert pickle.dumps(ours.point) == pickle.dumps(theirs.point)


# -- ordering and determinism -------------------------------------------------

def test_results_come_back_in_call_order():
    specs = [_spec(num_bins=b) for b in (4, 1, 2)]
    results = run_scenarios(specs, jobs=1)
    assert [r.point.num_bins for r in results] == [4, 1, 2]


def test_parallel_results_identical_to_serial():
    specs = [_spec(num_bins=b) for b in (1, 2, 4)]
    serial = run_scenarios(specs, jobs=1)
    parallel = run_scenarios(specs, jobs=3)
    assert serial == parallel
    _assert_identical(serial, _cached(parallel))


def test_sweep_bins_identical_for_any_jobs():
    kwargs = dict(experiment="fig3", title="sweep",
                  headline=lambda result: {}, series_list=[SPEC],
                  num_cores=8, bins_list=[1, 4], updates_per_core=3,
                  seed=0, cache=None)
    serial = run_bin_sweep(jobs=1, **kwargs)
    parallel = run_bin_sweep(jobs=4, **kwargs)
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

def test_cache_entry_name_is_pinned(tmp_path):
    """The on-disk key layout: sha256(fingerprint, "scenario", hash)."""
    cache = ResultCache(str(tmp_path), fingerprint="t")
    spec = default_spec("histogram", num_cores=8).with_params(
        bins=2, updates_per_core=2)
    assert spec.stable_hash().startswith("9381a252")
    run_scenarios([spec], cache=cache)
    assert sorted(name for name in os.listdir(tmp_path)
                  if name.endswith(".pkl")) == [
        "1c7bf46e4316e6b6bf66368a06c2ef209bae73a0"
        "c47e03a8346187a677c562cb.pkl"]


def test_cache_hit_skips_recomputation(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))
    specs = [_spec(num_bins=1), _spec(num_bins=2)]
    first = run_scenarios(specs, jobs=1, cache=cache)
    assert (cache.misses, cache.stores) == (2, 2)

    # Re-running must not simulate at all: poison the point executor.
    def boom(*_args, **_kwargs):
        raise AssertionError("cache miss: point was re-simulated")

    monkeypatch.setattr(run_module, "_execute_spec", boom)
    second = run_scenarios(specs, jobs=1, cache=cache)
    assert cache.hits == 2
    _assert_identical(first, second)


def test_cache_survives_process_boundary(tmp_path):
    """A fresh ResultCache over the same directory reuses disk entries."""
    first = run_scenarios([_spec()], jobs=1,
                          cache=ResultCache(str(tmp_path)))
    reopened = ResultCache(str(tmp_path))
    second = run_scenarios([_spec()], jobs=1, cache=reopened)
    assert reopened.hits == 1 and reopened.misses == 0
    _assert_identical(first, second)


def test_config_change_invalidates_only_changed_points(tmp_path):
    cache = ResultCache(str(tmp_path))
    run_scenarios([_spec(num_bins=1), _spec(num_bins=2)], jobs=1,
                  cache=cache)
    # One point's config changes (different seed); the other must hit.
    cache2 = ResultCache(str(tmp_path))
    run_scenarios([_spec(num_bins=1), _spec(num_bins=2, seed=9)], jobs=1,
                  cache=cache2)
    assert cache2.hits == 1
    assert cache2.misses == 1


def test_source_edit_invalidates_cache(tmp_path):
    """Cached numbers must not survive simulator-code changes."""
    cache = ResultCache(str(tmp_path))
    run_scenarios([_spec()], jobs=1, cache=cache)
    # Same directory, different source fingerprint (as after an edit).
    edited = ResultCache(str(tmp_path), fingerprint="deadbeef")
    run_scenarios([_spec()], jobs=1, cache=edited)
    assert (edited.hits, edited.misses) == (0, 1)
    # Unchanged sources still hit.
    same = ResultCache(str(tmp_path))
    assert same.fingerprint == cache.fingerprint
    run_scenarios([_spec()], jobs=1, cache=same)
    assert same.hits == 1


def test_cache_write_failure_degrades_gracefully(tmp_path, monkeypatch):
    """A full/read-only disk must not discard computed results."""
    import repro.eval.runner as runner_module
    cache = ResultCache(str(tmp_path))

    def disk_full(*_args, **_kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(runner_module.os, "replace", disk_full)
    results = run_scenarios([_spec()], jobs=1, cache=cache)
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
def test_unloadable_entry_is_recomputed_by_run_scenarios(tmp_path, payload):
    cache = ResultCache(str(tmp_path))
    spec = _spec()
    key = cache._key_for(scenario_cache_key(spec))
    with open(cache._file(key), "wb") as handle:
        handle.write(UNLOADABLE[payload])
    results = run_scenarios([spec], jobs=1, cache=cache)
    assert results[0].throughput > 0
    assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
    # The recomputed result replaced the unloadable entry.
    reopened = ResultCache(str(tmp_path))
    run_scenarios([spec], jobs=1, cache=reopened)
    assert (reopened.hits, reopened.misses) == (1, 0)


def test_interrupt_while_loading_an_entry_propagates(tmp_path,
                                                     monkeypatch):
    import repro.eval.runner as runner_module
    cache = ResultCache(str(tmp_path))
    run_scenarios([_spec()], jobs=1, cache=cache)

    def interrupted(_handle):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_module.pickle, "load", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_scenarios([_spec()], jobs=1, cache=ResultCache(str(tmp_path)))


def test_cache_clear_drops_entries(tmp_path):
    cache = ResultCache(str(tmp_path))
    run_scenarios([_spec()], jobs=1, cache=cache)
    cache.clear()
    run_scenarios([_spec()], jobs=1, cache=cache)
    assert cache.misses == 2


def test_parallel_run_populates_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    specs = [_spec(num_bins=b) for b in (1, 2)]
    run_scenarios(specs, jobs=2, cache=cache)
    assert cache.stores == 2
    rerun = ResultCache(str(tmp_path))
    run_scenarios(specs, jobs=2, cache=rerun)
    assert rerun.hits == 2
    # Cached and pooled fresh points reassemble in spec order, exactly
    # as a serial run returns them.
    mixed_specs = [_spec(num_bins=b) for b in (4, 1, 8, 2)]
    mixed = run_scenarios(mixed_specs, jobs=2, cache=rerun)
    assert (rerun.hits, rerun.misses, rerun.stores) == (4, 2, 2)
    assert [r.point.num_bins for r in mixed] == [4, 1, 8, 2]
    assert _cached(mixed) == _cached(run_scenarios(mixed_specs, jobs=1))


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
    args = build_parser().parse_args(["reproduce", "--only", "table2",
                                      "--jobs", "0"])
    assert args.jobs == 0 and args.only == "table2"
    # Default stays serial.
    args = build_parser().parse_args(["reproduce"])
    assert args.jobs == 1 and args.cache_dir is None


#: Manifest entries that simulate, so take ``jobs`` and ``cache``.
SIMULATED = ("table2", "fig3", "fig4", "fig5", "fig6")


class _Stub:
    """An experiment result that renders as ``<name>``."""

    def __init__(self, name):
        self.name = name

    def render(self):
        return f"<{self.name}>"

    def to_dict(self):
        return {"experiment": self.name}


def _stub_manifest(monkeypatch):
    """Swap every runner the paper manifest calls for a recorder.

    Returns ``{entry: (jobs, cache)}``, filled as the entries run.
    """
    from repro.eval import paper
    seen = {}

    def record(name):
        def fake(*_args, jobs=None, cache=None, **_kwargs):
            seen[name] = (jobs, cache)
            return _Stub(name)
        return fake

    for name in paper.EXPERIMENTS:
        monkeypatch.setattr(paper, f"run_{name}", record(name))
    return seen


def test_cli_passes_jobs_through_to_runners(monkeypatch, capsys, tmp_path):
    """``repro reproduce --jobs N`` reaches every simulated entry, its
    sections follow the manifest, and ``export_all`` indexes the
    manifest's names."""
    import repro.cli as cli
    from repro.eval import paper
    from repro.eval.export import export_all
    seen = _stub_manifest(monkeypatch)
    assert cli.main(["reproduce", "--jobs", "3"]) == 0
    assert capsys.readouterr().out == "\n\n".join(
        f"<{name}>" for name in paper.EXPERIMENTS) + "\n"
    assert {name: seen[name] for name in SIMULATED} == {
        name: (3, None) for name in SIMULATED}
    index = export_all(str(tmp_path), num_cores=8)
    assert list(index) == list(paper.EXPERIMENTS)


def test_cli_cache_dir_builds_cache(monkeypatch, capsys, tmp_path):
    import repro.cli as cli
    seen = _stub_manifest(monkeypatch)
    assert cli.main(["reproduce", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    caches = {seen[name][1] for name in SIMULATED}
    assert len(caches) == 1
    cache = caches.pop()
    assert isinstance(cache, ResultCache)
    assert cache.path == str(tmp_path)
    assert all(seen[name][0] == 1 for name in SIMULATED)
    # ``--only`` runs that one entry, with the same cache.
    seen.clear()
    assert cli.main(["reproduce", "--only", "table2", "--jobs", "2",
                     "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "<table2>\n"
    assert list(seen) == ["table2"]
    jobs, cache = seen["table2"]
    assert jobs == 2 and isinstance(cache, ResultCache)
    assert cache.path == str(tmp_path)
