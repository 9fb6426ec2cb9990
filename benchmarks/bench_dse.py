"""Design-space exploration benchmarks.

A campaign is a scheduling layer over the scenario runner: space
enumeration, spec building/validation, journal bookkeeping, objective
extraction, Pareto accounting.  The contract pinned down here is that
this layer stays negligible next to the simulations it schedules —
**campaign scheduling overhead under 5% of raw evaluation time** for a
grid campaign whose points each run a real (tiny) simulation.

The overhead compares one statistic on both sides: the best of 12
alternating rounds of the campaign and of the identical spec list
through ``run_scenarios`` (``_paired_best_seconds``), so a load burst
cannot land on one side only and the median of one side is never set
against the minimum of the other.  The assertion only fires when the
benchmark actually timed (``--benchmark-disable`` CI runs still execute
everything once for the correctness checks — see
``benchmarks/common.py`` on why CI never compares timings).  Medians
land in ``BENCH_engine.json`` under the ``PR4-dse-campaign`` label.

``test_journaled_warm_campaign`` times the harness alone: a journaled
192-point grid campaign re-run on a filled :class:`ResultCache`, so no
point simulates and the time is cache reads, record building and one
journal checkpoint per 8-point batch.  Checkpoints that re-encoded the
whole journal each time made this quadratic in the point count; the
perf gate holds it to its recorded, linear baseline.
"""

import json
import os

import pytest

from repro.dse import Campaign, SearchSpace, parse_objectives
from repro.eval.runner import ResultCache
from repro.scenarios import default_spec
from repro.scenarios.run import run_scenarios

from common import _paired_best_seconds, report

#: Same-machine allowance for the scheduling-overhead assertion.
MAX_OVERHEAD = 0.05

SPACE = SearchSpace.from_axes({"bins": [1, 2, 4, 8],
                               "variant": ["lrsc", "colibri"]})


def _base():
    return default_spec("histogram", num_cores=16).with_params(
        updates_per_core=4)


def _campaign():
    return Campaign(base=_base(), space=SPACE, sampler="grid",
                    objectives=parse_objectives(["min:cycles"]),
                    budget=SPACE.grid_size())


#: Alternating rounds of the overhead measurement.
OVERHEAD_ROUNDS = 12


def _raw_specs() -> list:
    """The campaign's points, to run without the engine."""
    campaign = _campaign()
    return [campaign._spec_for(combo, "full") for combo in SPACE.points()]


def test_campaign_scheduling_overhead_under_5_percent(benchmark):
    """Campaign run == raw evaluations + a sliver of scheduling."""

    def run():
        return _campaign().run()

    result = benchmark(run)
    assert result.status == "complete"
    assert result.paid == SPACE.grid_size()
    assert len(result.evaluations) == SPACE.grid_size()
    assert result.best() is not None
    if not benchmark.enabled:
        return  # --benchmark-disable: correctness-only execution
    specs = _raw_specs()
    campaign_s, raw = _paired_best_seconds(
        run, lambda: run_scenarios(specs, jobs=1), rounds=OVERHEAD_ROUNDS)
    overhead = campaign_s / raw - 1.0
    report(benchmark, f"campaign {campaign_s:.6f}s vs raw "
                      f"{raw:.6f}s (best of {OVERHEAD_ROUNDS} alternating "
                      f"rounds) -> overhead {overhead:+.2%}",
           raw_eval_s=raw, overhead_fraction=overhead)
    assert overhead <= MAX_OVERHEAD, (
        f"campaign scheduling overhead {overhead:.2%} exceeds "
        f"{MAX_OVERHEAD:.0%} of raw evaluation time "
        f"({campaign_s:.6f}s vs {raw:.6f}s)")


def test_halving_campaign_executes(benchmark):
    """The adaptive path (smoke rungs, promotion) stays healthy."""

    def run():
        return Campaign(base=_base(), space=SPACE, sampler="halving",
                        objectives=parse_objectives(["min:cycles"]),
                        budget=SPACE.grid_size() * 2).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.status == "complete"
    assert any(e.fidelity == "smoke" for e in result.evaluations)
    assert all(e.fidelity == "full" for e in result.ranking())
    if benchmark.enabled:
        report(benchmark, "halving campaign over "
                          f"{SPACE.grid_size()} points",
               paid=result.paid, evaluations=len(result.evaluations))


#: 192 points: enough checkpoints that re-encoding the whole journal
#: per batch would dominate the warm run.
WARM_SPACE = SearchSpace.from_axes({
    "bins": [1, 2, 4, 8, 16, 64],
    "variant": ["lrsc", "lrscwait:1", "colibri", "amo"],
    "seed": list(range(8)),
})


def _journaled_campaign(directory: str) -> Campaign:
    return Campaign(base=_base(), space=WARM_SPACE, sampler="grid",
                    objectives=parse_objectives(["min:cycles",
                                                 "max:throughput"]),
                    budget=WARM_SPACE.grid_size(),
                    cache=ResultCache(os.path.join(directory, "cache")),
                    journal_file=os.path.join(directory, "journal.json"))


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """A campaign directory whose cache holds every point (untimed)."""
    directory = str(tmp_path_factory.mktemp("warm-campaign"))
    _journaled_campaign(directory).run()
    return directory


def test_journaled_warm_campaign(benchmark, filled_cache):
    """A journaled campaign served wholly from the cache."""

    def run():
        return _journaled_campaign(filled_cache).run()

    result = benchmark(run)
    points = WARM_SPACE.grid_size()
    assert result.status == "complete" and result.paid == 0
    assert len(result.evaluations) == points
    assert all(e.cache_hit for e in result.evaluations)
    with open(os.path.join(filled_cache, "journal.json")) as stream:
        assert stream.read() == json.dumps(result.journal, indent=2,
                                           sort_keys=True) + "\n"
    if benchmark.enabled:
        median = benchmark.stats.stats.median
        report(benchmark, f"journaled warm campaign: {points} points in "
                          f"{median * 1e3:.1f} ms "
                          f"({points / median:.0f} points/s)",
               points=points, points_per_s=round(points / median, 1))
