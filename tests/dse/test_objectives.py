"""Objectives: parsing, extraction, Pareto fronts, probe summaries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dse import (
    Objective,
    pareto_front,
    parse_objective,
    parse_objectives,
    probe_summaries,
)
from repro.engine.errors import ConfigError
from repro.scenarios import default_spec, run_scenario


def test_parse_explicit_goal():
    objective = parse_objective("max:throughput")
    assert objective.goal == "max"
    assert objective.metric == "throughput"
    assert objective.name == "max:throughput"


def test_parse_aliases():
    assert parse_objective("runtime") == Objective("cycles", "min")
    assert parse_objective("energy") == Objective("energy_pj_per_op", "min")
    assert parse_objective("min:energy") == \
        Objective("energy_pj_per_op", "min")
    assert parse_objective("throughput") == Objective("throughput", "max")


def test_bare_metric_minimizes_by_default():
    assert parse_objective("sc_failures").goal == "min"


def test_parse_rejects_bad_goal_and_duplicates():
    with pytest.raises(ConfigError, match="min"):
        parse_objective("most:cycles")
    with pytest.raises(ConfigError, match="twice"):
        parse_objectives(["min:cycles", "max:cycles"])


def test_canonical_negates_max():
    objective = Objective("throughput", "max")
    assert objective.canonical(2.0) == -2.0
    assert Objective("cycles", "min").canonical(2.0) == 2.0


def test_value_from_scalars_and_unknown_metric():
    objective = Objective("cycles", "min")
    assert objective.value({"cycles": 42}) == 42.0
    with pytest.raises(ConfigError, match="unknown objective metric"):
        Objective("warp", "min").value({"cycles": 42})


def test_pareto_front_two_objectives():
    objectives = [Objective("cycles", "min"), Objective("energy", "min")]
    rows = [
        {"cycles": 10, "energy": 10},   # frontier
        {"cycles": 5, "energy": 20},    # frontier
        {"cycles": 20, "energy": 5},    # frontier
        {"cycles": 20, "energy": 20},   # dominated by 0
        {"cycles": 10, "energy": 10},   # duplicate of 0 -> dropped
    ]
    assert pareto_front(rows, objectives) == [0, 1, 2]


def test_pareto_front_single_objective_is_the_minimum():
    objectives = [Objective("cycles", "min")]
    rows = [{"cycles": 9}, {"cycles": 3}, {"cycles": 7}]
    assert pareto_front(rows, objectives) == [1]


def test_pareto_front_respects_max_goal():
    objectives = [Objective("throughput", "max")]
    rows = [{"throughput": 1.0}, {"throughput": 3.0}]
    assert pareto_front(rows, objectives) == [1]


def brute_force_front(rows, objectives) -> list:
    """The all-pairs reference: dominated rows and later exact
    duplicates drop out, survivors stay in input order."""
    scored = [tuple(obj.canonical(row[obj.metric]) for obj in objectives)
              for row in rows]
    front = []
    for index, candidate in enumerate(scored):
        dominated = False
        for other_index, other in enumerate(scored):
            if other_index == index:
                continue
            if all(o <= c for o, c in zip(other, candidate)) \
                    and any(o < c for o, c in zip(other, candidate)):
                dominated = True
                break
            if other == candidate and other_index < index:
                dominated = True
                break
        if not dominated:
            front.append(index)
    return front


#: Few distinct values, so ties, duplicates and dominance all occur;
#: NaN compares with nothing and must not upset the sweep's ordering.
PARETO_VALUES = st.sampled_from([0, 1, 2, 3, -1.5, 0.0, -0.0, 2.5,
                                 float("inf"), -float("inf"),
                                 float("nan")]) \
    | st.floats(allow_nan=True) | st.integers(-3, 3)


@settings(max_examples=300, deadline=None)
@given(goals=st.lists(st.sampled_from(["min", "max"]), min_size=1,
                      max_size=3),
       values=st.lists(st.lists(PARETO_VALUES, min_size=3, max_size=3),
                       max_size=25))
def test_pareto_front_matches_the_brute_force_reference(goals, values):
    metrics = ["a", "b", "c"][:len(goals)]
    objectives = [Objective(metric, goal)
                  for metric, goal in zip(metrics, goals)]
    rows = [dict(zip(metrics, row)) for row in values]
    assert pareto_front(rows, objectives) \
        == brute_force_front(rows, objectives)


def test_telemetry_objective_names_probe():
    objective = parse_objective(
        "min:telemetry.bank_contention.peak_bank_accesses")
    assert objective.probe == "bank_contention"
    with pytest.raises(ConfigError, match="telemetry objectives"):
        Objective("telemetry.bank_contention", "min").probe


def test_probe_summaries_from_real_run():
    spec = default_spec("histogram", num_cores=8).with_params(
        bins=2, updates_per_core=2)
    result = run_scenario(spec, probes=["bank_contention",
                                        "core_timeline"])
    summaries = probe_summaries(result.telemetry)
    contention = summaries["bank_contention"]
    assert contention["peak_bank_accesses"] > 0
    assert "total_conflicts" in contention
    assert summaries["core_timeline"]["active_cycles"] > 0
    objective = parse_objective(
        "min:telemetry.bank_contention.peak_bank_accesses")
    value = objective.value(result.scalars(), result.telemetry)
    assert value == contention["peak_bank_accesses"]


def test_queue_occupancy_summary_means_the_mean():
    section = {"banks": [
        {"bank": 0, "max_depth": 4, "mean_depth": 0.5, "samples": [[0, 1]]},
        {"bank": 1, "max_depth": 2, "mean_depth": 1.5, "samples": [[0, 1]]},
        {"bank": 2, "max_depth": 9, "mean_depth": 9.0, "samples": []},
    ]}
    summary = probe_summaries({"queue_occupancy": section})
    # Idle banks (no samples) are excluded; the rest average.
    assert summary["queue_occupancy"]["mean_depth"] == 1.0
    assert summary["queue_occupancy"]["max_depth"] == 4


def test_telemetry_objective_without_report_fails_cleanly():
    objective = parse_objective("min:telemetry.bank_contention.accesses")
    with pytest.raises(ConfigError, match="not probed"):
        objective.value({"cycles": 1}, telemetry=None)
