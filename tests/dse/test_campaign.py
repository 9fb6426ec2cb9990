"""Campaign engine: budget, caching, determinism, resume, goldens."""

import json

import pytest

import repro.dse.campaign as campaign_module
from repro.dse import (
    Campaign,
    SearchSpace,
    journal_path,
    load_journal,
    parse_objectives,
    validate_journal,
)
from repro.engine.errors import ConfigError
from repro.eval.runner import ResultCache
from repro.scenarios import default_spec

SPACE = SearchSpace.from_axes({"bins": [1, 2, 4, 8],
                               "variant": ["lrsc", "colibri"]})
OBJECTIVES = ["min:cycles"]


def base_spec():
    return default_spec("histogram", num_cores=8).with_params(
        updates_per_core=2)


def make_campaign(sampler="grid", budget=20, space=SPACE, **kwargs):
    return Campaign(base=base_spec(), space=space, sampler=sampler,
                    objectives=parse_objectives(
                        kwargs.pop("objectives", OBJECTIVES)),
                    budget=budget, **kwargs)


def strip_wall(journal):
    """A journal minus its one nondeterministic field (``wall_ms``).

    Everything else — including ``cache_hit`` — must stay byte-stable
    across jobs values and resumes, so equality asserts compare this.
    """
    stripped = json.loads(json.dumps(journal, sort_keys=True))
    for record in stripped["evaluations"]:
        record.pop("wall_ms", None)
    return stripped


@pytest.fixture
def count_simulations(monkeypatch):
    """Count the specs that reach fresh simulation."""
    simulated = []
    original = campaign_module.simulate

    def counting(specs, jobs=1, cache=None):
        simulated.extend(specs)
        return original(specs, jobs=jobs, cache=cache)

    monkeypatch.setattr(campaign_module, "simulate", counting)
    return simulated


# -- basics -------------------------------------------------------------------


def test_grid_campaign_covers_space_and_validates():
    result = make_campaign().run()
    assert result.status == "complete"
    assert result.paid == SPACE.grid_size()
    assert len(result.evaluations) == SPACE.grid_size()
    validate_journal(result.journal)
    assert result.journal["best"] == result.best().index
    assert result.best().overrides in SPACE.points()


def test_objective_metrics_are_attached_to_specs():
    result = make_campaign(objectives=["min:energy", "min:cycles"],
                           budget=20,
                           space=SearchSpace.from_axes({"bins": [1, 2]})
                           ).run()
    for evaluation in result.evaluations:
        assert "energy_pj_per_op" in evaluation.objectives
        assert evaluation.spec["metrics"] == ["energy_pj_per_op"]


def test_budget_truncates_deterministically():
    result = make_campaign(budget=3).run()
    assert result.status == "budget"
    assert result.paid == 3
    assert len(result.evaluations) == 3
    # Exactly the first three grid proposals, in order.
    full = make_campaign(budget=20).run()
    assert [e.spec_hash for e in result.evaluations] == \
        [e.spec_hash for e in full.evaluations[:3]]


def test_invalid_combo_fails_before_anything_runs(count_simulations):
    space = SearchSpace.from_axes({"bins": [1], "bogus_param": [3]})
    with pytest.raises(ConfigError, match="bogus_param"):
        make_campaign(space=space)
    assert count_simulations == []


def test_campaign_rejects_zero_budget_and_no_objectives():
    with pytest.raises(ConfigError, match="budget"):
        make_campaign(budget=0)
    with pytest.raises(ConfigError, match="objective"):
        Campaign(base=base_spec(), space=SPACE, sampler="grid",
                 objectives=[], budget=1)


# -- caching ------------------------------------------------------------------


def test_cache_hits_cost_zero_budget(tmp_path, count_simulations):
    cache = ResultCache(str(tmp_path), fingerprint="t")
    small = SearchSpace.from_axes({"bins": [1, 2]})
    first = make_campaign(space=small, budget=2, cache=cache).run()
    assert first.paid == 2
    assert len(count_simulations) == 2
    # Second campaign over a superset: the two cached points are free,
    # so a budget of 2 pays for two *new* points.
    bigger = SearchSpace.from_axes({"bins": [1, 2, 4, 8]})
    second = make_campaign(space=bigger, budget=2, cache=cache).run()
    assert second.status == "complete"
    assert second.paid == 2
    assert len(second.evaluations) == 4
    assert [e.cached for e in second.evaluations] == \
        [True, True, False, False]
    assert len(count_simulations) == 4


def test_each_fresh_point_is_looked_up_once(tmp_path, capsys):
    from repro.cli import main
    points = SPACE.grid_size()
    cold = ResultCache(str(tmp_path), fingerprint="t")
    make_campaign(cache=cold).run()
    assert (cold.misses, cold.stores) == (points, points)
    assert cold.lifetime_stats()["misses"] == points
    warm = ResultCache(str(tmp_path), fingerprint="t")
    make_campaign(cache=warm).run()
    assert (warm.hits, warm.misses) == (points, 0)
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    assert "50.0%" in capsys.readouterr().out


def test_repeat_proposals_within_a_campaign_are_free(count_simulations):
    # halving re-proposes survivors (smoke rungs repeat at 8 cores
    # because histogram's smoke shape equals this base spec).
    result = make_campaign(sampler="halving", budget=20).run()
    assert result.status == "complete"
    hashes = [e.spec_hash for e in result.evaluations]
    assert len(set(hashes)) == len(count_simulations)
    assert result.paid == len(count_simulations)
    assert any(e.cached for e in result.evaluations)


def test_duplicate_proposals_within_one_batch_are_free(count_simulations):
    """A sampler proposing the same combo twice in one batch pays once."""
    from repro.dse import Batch, Sampler, register_sampler, \
        unregister_sampler

    @register_sampler("dup_test_sampler")
    class DupSampler(Sampler):
        def batches(self, space, budget, rng):
            point = space.points()[0]
            yield Batch([point, dict(point)])

    try:
        result = make_campaign(sampler="dup_test_sampler",
                               budget=1).run()
    finally:
        unregister_sampler("dup_test_sampler")
    assert result.status == "complete"     # budget=1 suffices
    assert result.paid == 1
    assert len(count_simulations) == 1
    assert [e.cached for e in result.evaluations] == [False, True]
    assert result.evaluations[0].objectives == \
        result.evaluations[1].objectives


def test_failed_objective_extraction_preserves_work(tmp_path):
    """A bad telemetry summary key fails the campaign, but the journal
    flushes and the cache keeps whatever simulated (nothing lost)."""
    journal_file = journal_path(str(tmp_path))
    with pytest.raises(ConfigError, match="no summary"):
        make_campaign(
            space=SearchSpace.from_axes({"bins": [1, 2]}), budget=4,
            objectives=["min:telemetry.bank_contention.bogus_key"],
            journal_file=journal_file).run()
    flushed = load_journal(journal_file)
    assert flushed["status"] == "partial"


def test_unknown_probe_objective_fails_before_simulating(
        count_simulations):
    with pytest.raises(ConfigError, match="no probe registered"):
        make_campaign(objectives=["min:telemetry.warp_probe.depth"],
                      budget=4)
    assert count_simulations == []


def test_typoed_metric_objective_fails_before_simulating(
        count_simulations):
    """A misspelled --objective must cost zero simulations."""
    with pytest.raises(ConfigError, match="cycels"):
        make_campaign(objectives=["min:cycels"], budget=8)
    assert count_simulations == []


def test_workload_declared_extra_metrics_are_valid_objectives():
    result = make_campaign(
        space=SearchSpace.from_axes({"bins": [1, 2]}),
        objectives=["min:pj_per_op"], budget=4).run()
    assert all(e.objectives["pj_per_op"] > 0
               for e in result.evaluations)


# -- determinism --------------------------------------------------------------


@pytest.mark.parametrize("sampler", ["grid", "random", "halving"])
def test_same_seed_same_budget_identical_journal_any_jobs(sampler):
    """The acceptance contract: jobs must not leak into the journal."""
    serial = make_campaign(sampler=sampler, budget=6, seed=3,
                           jobs=1).run()
    parallel = make_campaign(sampler=sampler, budget=6, seed=3,
                             jobs=4).run()
    assert strip_wall(serial.journal) == strip_wall(parallel.journal)
    assert json.dumps(strip_wall(serial.journal), sort_keys=True) == \
        json.dumps(strip_wall(parallel.journal), sort_keys=True)
    # The stripped field is real wall-clock attribution, not padding:
    # every fresh evaluation of both runs carries a positive wall_ms.
    for result in (serial, parallel):
        assert all(record["wall_ms"] > 0
                   for record in result.journal["evaluations"]
                   if not record["cached"])


def test_random_campaigns_differ_across_seeds():
    one = make_campaign(sampler="random", budget=4, seed=1).run()
    two = make_campaign(sampler="random", budget=4, seed=2).run()
    assert [e.spec_hash for e in one.evaluations] != \
        [e.spec_hash for e in two.evaluations]


# -- golden: halving vs exhaustive grid --------------------------------------


def test_halving_finds_the_grid_optimum():
    """Acceptance golden: over a small 2-axis space, successive
    halving's winner equals exhaustive grid search's winner."""
    grid = make_campaign(sampler="grid", budget=50).run()
    halving = make_campaign(sampler="halving", budget=50).run()
    assert halving.status == "complete"
    assert halving.best().overrides == grid.best().overrides
    assert halving.best().objectives == grid.best().objectives
    # And it steered: smoke rungs exist, ranking used full runs only.
    assert any(e.fidelity == "smoke" for e in halving.evaluations)
    assert all(e.fidelity == "full" for e in halving.ranking())


# -- resume -------------------------------------------------------------------


def test_resume_after_kill_rerurns_nothing_journaled(
        tmp_path, count_simulations):
    """Acceptance golden: a killed campaign resumed from its journal
    completes with zero re-evaluated points."""
    journal_file = journal_path(str(tmp_path / "camp"))
    straight = make_campaign(sampler="halving", budget=20, seed=1,
                             journal_file=journal_file).run()
    straight_count = len(count_simulations)
    # Simulate the kill: rewind the journal to its first 5 records.
    document = load_journal(journal_file)
    kept = document["evaluations"][:5]
    document.update(
        evaluations=kept,
        paid=sum(1 for record in kept if not record["cached"]),
        status="partial", best=None, frontier=[])
    with open(journal_file, "w") as stream:
        json.dump(document, stream)
    count_simulations.clear()
    resumed = make_campaign(sampler="halving", budget=20, seed=1,
                            journal_file=journal_file,
                            resume=load_journal(journal_file)).run()
    # Replay re-simulated none of the 5 journaled records; the rest of
    # the campaign ran fresh, converging to the uninterrupted journal.
    replayed_hashes = {record["spec_hash"] for record in kept}
    assert all(spec.stable_hash() not in replayed_hashes
               for spec in count_simulations)
    assert len(count_simulations) == straight_count - len(kept)
    # Replayed records keep their journaled wall_ms verbatim; records
    # simulated after the replay re-time, hence the strip.
    assert strip_wall(resumed.journal) == strip_wall(straight.journal)
    assert resumed.journal["evaluations"][:5] == \
        straight.journal["evaluations"][:5]


def test_resume_with_larger_budget_continues(tmp_path):
    journal_file = journal_path(str(tmp_path))
    small = make_campaign(budget=3, journal_file=journal_file).run()
    assert small.status == "budget"
    resumed = make_campaign(budget=20, journal_file=journal_file,
                            resume=load_journal(journal_file)).run()
    assert resumed.status == "complete"
    assert resumed.paid == SPACE.grid_size()
    full = make_campaign(budget=20).run()
    assert [e.spec_hash for e in resumed.evaluations] == \
        [e.spec_hash for e in full.evaluations]


def test_interrupted_resume_never_shrinks_the_journal(tmp_path,
                                                      monkeypatch):
    """Paid records on disk survive a resume that dies mid-replay."""
    journal_file = journal_path(str(tmp_path))
    make_campaign(budget=20, journal_file=journal_file).run()
    on_disk = load_journal(journal_file)
    assert len(on_disk["evaluations"]) == SPACE.grid_size()

    # A resume under a *smaller* budget truncates during replay; the
    # richer on-disk journal must be left untouched.
    smaller = make_campaign(budget=2, journal_file=journal_file,
                            resume=load_journal(journal_file)).run()
    assert smaller.status == "budget"
    assert load_journal(journal_file) == on_disk

    # And while a multi-batch replay is catching up, no intermediate
    # flush (a crash would leave the last one) may hold fewer records
    # than the journal being resumed.
    halving_file = journal_path(str(tmp_path / "halving"))
    straight = make_campaign(sampler="halving", budget=20,
                             journal_file=halving_file).run()
    total = len(straight.evaluations)
    assert straight.journal["evaluations"][0]["fidelity"] == "smoke"

    written = []
    original = campaign_module.write_journal

    def spying(path, document):
        written.append(len(document["evaluations"]))
        return original(path, document)

    monkeypatch.setattr(campaign_module, "write_journal", spying)
    make_campaign(sampler="halving", budget=20,
                  journal_file=halving_file,
                  resume=load_journal(halving_file)).run()
    assert written, "resume should still finalize the journal"
    assert all(count >= total for count in written)


def test_resume_rejects_a_different_campaign(tmp_path):
    journal_file = journal_path(str(tmp_path))
    make_campaign(budget=3, journal_file=journal_file).run()
    other_space = SearchSpace.from_axes({"bins": [1, 2]})
    with pytest.raises(ConfigError, match="cannot resume"):
        make_campaign(space=other_space, budget=3,
                      resume=load_journal(journal_file))


def test_journal_written_after_every_batch(tmp_path, monkeypatch):
    """A kill between batches loses at most the batch in flight."""
    journal_file = journal_path(str(tmp_path))
    snapshots = []
    original = campaign_module.write_journal

    def spying(path, document):
        snapshots.append(len(document["evaluations"]))
        return original(path, document)

    monkeypatch.setattr(campaign_module, "write_journal", spying)
    make_campaign(sampler="random", budget=8, seed=0,
                  journal_file=journal_file).run()
    # random proposes batch_size=8 points -> one batch write + final.
    assert len(snapshots) >= 2
    assert snapshots == sorted(snapshots)
    validate_journal(load_journal(journal_file))


# -- telemetry objectives -----------------------------------------------------


def test_telemetry_objective_runs_probed_and_serial():
    space = SearchSpace.from_axes({"variant": ["lrsc", "colibri"]})
    result = make_campaign(
        space=space, budget=4,
        objectives=["min:telemetry.bank_contention.peak_bank_accesses",
                    "min:cycles"]).run()
    assert result.status == "complete"
    metric = "telemetry.bank_contention.peak_bank_accesses"
    values = [e.objectives[metric] for e in result.evaluations]
    assert all(value > 0 for value in values)
    # LR/SC polls the hot banks far harder than sleeping Colibri.
    by_variant = {e.overrides["variant"]: e.objectives[metric]
                  for e in result.evaluations}
    assert by_variant["lrsc"] > by_variant["colibri"]
    validate_journal(result.journal)
