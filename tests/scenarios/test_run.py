"""Executing specs: equivalence, parallelism, caching, run modes."""

import dataclasses

import pytest

from repro.engine.errors import ConfigError
from repro.eval.fig3 import run_fig3
from repro.eval.harness import FIG3_SERIES, histogram_spec
from repro.eval.runner import ResultCache
from repro.scenarios import (
    build_machine,
    default_spec,
    run_scenario,
    run_scenarios,
)
from repro.scenarios.run import sweep


def paper_point_spec():
    """One genuine Fig. 3 point (LRSCwait_ideal, 8 cores, 4 bins)."""
    return histogram_spec(FIG3_SERIES[1], 8, 4, 4, seed=0)


def new_scenario_spec():
    """One of the non-paper scenarios, tiny."""
    return default_spec("barrier_storm").with_params(rounds=2)


# -- spec-driven == direct -----------------------------------------------------


def test_run_scenario_matches_run_histogram_point():
    point = run_scenario(paper_point_spec()).point
    figure = run_fig3(num_cores=8, bins_list=[4], updates_per_core=4)
    assert point == figure.points["LRSCwait_ideal"][0]


def test_result_carries_stats_and_metrics():
    result = run_scenario(paper_point_spec())
    assert result.cycles == result.stats.cycles
    assert result.throughput == result.stats.throughput
    assert "pj_per_op" in result.metrics
    assert result.scalars()["cycles"] == result.cycles


def test_requested_metrics_attached():
    spec = dataclasses.replace(paper_point_spec(),
                               metrics=("hops", "ops"))
    result = run_scenario(spec)
    assert result.metrics["ops"] == 8 * 4
    assert result.metrics["hops"] > 0


# -- parallel == serial --------------------------------------------------------


def test_parallel_equals_serial_for_paper_and_new_scenarios():
    specs = [paper_point_spec(), new_scenario_spec(),
             paper_point_spec().override(seed=1),
             new_scenario_spec().override(seed=3)]
    serial = run_scenarios(specs, jobs=1)
    parallel = run_scenarios(specs, jobs=4)
    for a, b in zip(serial, parallel):
        assert a.cycles == b.cycles
        assert a.metrics == b.metrics
        assert a.point == b.point


def test_run_scenario_jobs_parameter_accepted():
    a = run_scenario(paper_point_spec(), jobs=1)
    b = run_scenario(paper_point_spec(), jobs=2)
    assert a.point == b.point


# -- caching -------------------------------------------------------------------


def test_cache_hits_by_stable_hash(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = paper_point_spec()
    first = run_scenario(spec, cache=cache)
    assert cache.stores == 1
    second = run_scenario(spec, cache=cache)
    assert cache.hits == 1
    assert second.point == first.point


def test_cache_persists_across_instances(tmp_path):
    spec = new_scenario_spec()
    run_scenario(spec, cache=ResultCache(str(tmp_path)))
    warm = ResultCache(str(tmp_path))
    result = run_scenario(spec, cache=warm)
    assert warm.hits == 1 and warm.stores == 0
    assert result.metrics["rounds"] == 2


def test_cache_distinguishes_specs(tmp_path):
    cache = ResultCache(str(tmp_path))
    run_scenario(paper_point_spec(), cache=cache)
    run_scenario(paper_point_spec().with_params(bins=2), cache=cache)
    assert cache.stores == 2


# -- run modes -----------------------------------------------------------------


def test_horizon_mode_freezes_at_budget():
    spec = default_spec("histogram", num_cores=8).with_params(
        bins=2, updates_per_core=50).override(mode="horizon", horizon=40)
    result = run_scenario(spec)
    assert result.cycles == 40


def test_watched_mode_on_matmul():
    spec = default_spec("matmul", num_cores=8).with_params(
        dim=4, workers=2).override(mode="watched")
    result = run_scenario(spec)
    assert result.cycles > 0


def test_watched_mode_rejected_without_watched_cores():
    spec = default_spec("histogram", num_cores=8).override(mode="watched")
    with pytest.raises(ConfigError, match="watched"):
        run_scenario(spec)


# -- build_machine -------------------------------------------------------------


def test_build_machine_matches_spec():
    spec = default_spec("pipeline")          # 6 cores, 2-core tiles
    machine = build_machine(spec)
    assert machine.config.num_cores == 6
    assert machine.config.cores_per_tile == 2
    assert machine.variant == spec.variant_spec()
    assert machine.seed == spec.seed


# -- sweep ---------------------------------------------------------------------


def test_sweep_cartesian_grid():
    base = default_spec("histogram", num_cores=8).with_params(
        updates_per_core=2)
    outcomes = sweep(base, {"bins": [1, 4], "seed": [0, 1]})
    assert len(outcomes) == 4
    combos = [combo for combo, _result in outcomes]
    assert {"bins": 4, "seed": 1} in combos
    for combo, result in outcomes:
        assert result.spec.params_dict()["bins"] == combo["bins"]
        assert result.spec.seed == combo["seed"]
        assert result.cycles > 0


def test_sweep_needs_axes():
    with pytest.raises(ConfigError):
        sweep(default_spec("histogram"), {})


# -- apply_settings ------------------------------------------------------------


def test_apply_settings_honors_explicit_none():
    from repro.scenarios import apply_settings
    base = default_spec("barrier_storm")     # cores_per_tile=3 default
    assert base.cores_per_tile == 3
    reset = apply_settings(base, {"cores_per_tile": None,
                                  "cores": 8})
    assert reset.cores_per_tile is None      # back to the scaled default
    assert reset.num_cores == 8


def test_cache_entries_drop_stats_but_keep_points(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = paper_point_spec()
    fresh = run_scenario(spec, cache=cache)
    assert fresh.stats is not None           # fresh result keeps stats
    hit = run_scenario(spec, cache=cache)
    assert hit.stats is None                 # cache stores scalars only
    assert hit.point == fresh.point
    assert hit.metrics == fresh.metrics
    assert hit.cycles == fresh.cycles


def test_probed_runs_bypass_and_never_pollute_the_cache(tmp_path):
    """Telemetry reports stay out of ResultCache entries: a probed run
    simulates fresh (even on a warm cache) and the entry it would have
    matched keeps serving slim, telemetry-free results."""
    cache = ResultCache(str(tmp_path))
    spec = paper_point_spec()
    run_scenario(spec, cache=cache)                    # warm the cache
    probed = run_scenario(spec, probes=["bank_contention"])
    assert probed.telemetry is not None
    assert probed.telemetry.probes["bank_contention"]["banks"]
    hit = run_scenario(spec, cache=cache)              # still a slim hit
    assert hit.telemetry is None
    assert hit.stats is None
    assert hit.cycles == probed.cycles
