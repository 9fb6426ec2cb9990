"""Objectives: what a search campaign optimizes.

An :class:`Objective` is a direction (``min``/``max``) over a named
scalar of a finished run.  The scalar vocabulary is:

* the headline :meth:`~repro.scenarios.run.ScenarioResult.scalars`
  (``cycles``, ``throughput``, ``messages``, ``active_cycles``,
  ``sleep_cycles``) plus anything the workload's ``finish`` attaches;
* every named stat extractor in :data:`repro.scenarios.run.METRICS`
  (``energy_pj_per_op``, ``sc_failures``, ...) — campaigns add these to
  the spec's ``metrics`` field automatically;
* telemetry probe summaries, spelled ``telemetry.<probe>.<key>`` (see
  :func:`probe_summaries`) — these force probed, cache-less runs.

Objectives parse from CLI strings (``min:cycles``, ``max:throughput``,
``energy``), and :func:`pareto_front` computes the non-dominated subset
of a set of evaluated points for any number of objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.errors import ConfigError
from ..scenarios.run import METRICS

#: Friendly shorthand -> (goal, metric).  ``runtime``/``energy`` are
#: the paper's trade-off axes (Fig. 3-6 vs Table II).
OBJECTIVE_ALIASES = {
    "runtime": ("min", "cycles"),
    "cycles": ("min", "cycles"),
    "energy": ("min", "energy_pj_per_op"),
    "throughput": ("max", "throughput"),
    "messages": ("min", "messages"),
}

#: Scalars every ScenarioResult carries without extra metrics.
_BASE_SCALARS = ("cycles", "throughput", "messages", "active_cycles",
                 "sleep_cycles")

GOALS = ("min", "max")


@dataclass(frozen=True)
class Objective:
    """One optimization target: ``goal`` direction over ``metric``."""

    metric: str
    goal: str = "min"

    def __post_init__(self) -> None:
        if self.goal not in GOALS:
            raise ConfigError(
                f"objective goal must be one of {GOALS}, got {self.goal!r}")
        if not self.metric or not isinstance(self.metric, str):
            raise ConfigError(
                f"objective metric must be a non-empty string, "
                f"got {self.metric!r}")

    @property
    def name(self) -> str:
        """Canonical ``goal:metric`` spelling (journal/CLI identity)."""
        return f"{self.goal}:{self.metric}"

    @property
    def probe(self):
        """The telemetry probe this objective needs, or ``None``."""
        if self.metric.startswith("telemetry."):
            parts = self.metric.split(".")
            if len(parts) != 3 or not all(parts):
                raise ConfigError(
                    f"telemetry objectives are spelled "
                    f"'telemetry.<probe>.<key>', got {self.metric!r}")
            return parts[1]
        return None

    def required_metric(self):
        """The METRICS extractor name to add to specs, or ``None``."""
        if self.probe is None and self.metric in METRICS \
                and self.metric not in _BASE_SCALARS:
            return self.metric
        return None

    def value(self, scalars: dict, telemetry=None) -> float:
        """Extract this objective's raw value from one evaluation.

        ``scalars`` is :meth:`ScenarioResult.scalars` (or the journal's
        recorded copy); ``telemetry`` the run's
        :class:`~repro.telemetry.report.TelemetryReport` when probed.
        """
        probe = self.probe
        if probe is not None:
            if telemetry is None:
                raise ConfigError(
                    f"objective {self.name!r} needs telemetry but the "
                    f"run was not probed")
            key = self.metric.split(".")[2]
            summary = probe_summaries(telemetry).get(probe, {})
            if key not in summary:
                raise ConfigError(
                    f"probe {probe!r} has no summary {key!r}; "
                    f"available: {sorted(summary) or '(none)'}")
            return float(summary[key])
        if self.metric not in scalars:
            raise ConfigError(
                f"unknown objective metric {self.metric!r}; known scalars: "
                f"{sorted(set(scalars) | set(METRICS))}")
        try:
            return float(scalars[self.metric])
        except (TypeError, ValueError):
            raise ConfigError(
                f"objective metric {self.metric!r} is not numeric "
                f"(got {scalars[self.metric]!r}); pick a numeric metric")

    def canonical(self, value: float) -> float:
        """The value as a minimization score (negated for ``max``)."""
        return value if self.goal == "min" else -value


def parse_objective(text: str) -> Objective:
    """``"min:cycles"`` / ``"max:throughput"`` / alias -> Objective."""
    if not text or not isinstance(text, str):
        raise ConfigError(
            f"objective must be a non-empty string, got {text!r}")
    head, sep, rest = text.partition(":")
    if sep and head in GOALS:
        # An explicit goal keeps its direction; the metric part still
        # resolves through the aliases ("min:energy" works).
        metric = OBJECTIVE_ALIASES.get(rest, (None, rest))[1]
        return Objective(metric=metric, goal=head)
    if text in OBJECTIVE_ALIASES:
        goal, metric = OBJECTIVE_ALIASES[text]
        return Objective(metric=metric, goal=goal)
    if sep:
        raise ConfigError(
            f"objective {text!r} must start with 'min:' or 'max:'")
    # Bare metric name: minimize by default (most stats are costs).
    return Objective(metric=text, goal="min")


def parse_objectives(texts) -> list:
    """Parse several, rejecting duplicates (order = priority order)."""
    objectives = [parse_objective(text) for text in texts]
    seen = set()
    for objective in objectives:
        if objective.metric in seen:
            raise ConfigError(
                f"objective metric {objective.metric!r} given twice")
        seen.add(objective.metric)
    return objectives


def pareto_front(rows, objectives) -> list:
    """Indices of the non-dominated rows.

    ``rows`` is a sequence of per-objective value dicts (``{metric:
    value}``); a row is dominated when another row is no worse on every
    objective and strictly better on at least one.  Of exact duplicates
    only the first occurrence is kept.  Returned indices are in input
    order, so ties and single-objective fronts stay deterministic.

    One sweep in ``(scores, index)`` order: every row that dominates
    or duplicates a candidate sorts before it, and every row already
    dropped is covered by a kept one, so each candidate is checked
    against the front built so far only.  A score tuple holding a NaN
    compares with nothing; such rows are only ever dropped as repeats
    of an earlier row.
    """
    scored = [tuple(obj.canonical(row[obj.metric]) for obj in objectives)
              for row in rows]
    ordered = []
    unordered = []
    for index, score in enumerate(scored):
        if all(value == value for value in score):
            ordered.append((score, index))
        elif score not in [scored[i] for i in unordered]:
            unordered.append(index)
    ordered.sort()
    front = []
    kept = []
    for score, index in ordered:
        if not any(all(o <= c for o, c in zip(other, score))
                   for other in front):
            front.append(score)
            kept.append(index)
    return sorted(kept + unordered)


def probe_summaries(report) -> dict:
    """Flat scalar summaries per probe section of a telemetry report.

    These are the values ``telemetry.<probe>.<key>`` objectives read.
    Known built-in probes get purposeful aggregates; user-registered
    probes fall back to the numeric scalars at the top of their section.
    """
    probes = report.probes if hasattr(report, "probes") else report
    summaries = {}
    for name, section in probes.items():
        summary = {key: value for key, value in section.items()
                   if isinstance(value, (int, float))
                   and not isinstance(value, bool)}
        builder = _PROBE_SUMMARIES.get(name)
        if builder is not None:
            summary.update(builder(section))
        summaries[name] = summary
    return summaries


def _summarize_bank_contention(section: dict) -> dict:
    banks = section["banks"]
    return {
        "peak_bank_accesses": max((b["accesses"] for b in banks), default=0),
        "total_conflicts": sum(b["conflicts"] for b in banks),
        "total_queued_cycles": sum(b["queued_cycles"] for b in banks),
        "total_failed_responses": sum(b["failed_responses"] for b in banks),
    }


def _summarize_core_timeline(section: dict) -> dict:
    totals = section["state_totals"]
    return {f"{state}_cycles": cycles for state, cycles in totals.items()}


def _summarize_queue_occupancy(section: dict) -> dict:
    banks = [b for b in section["banks"] if b["samples"]]
    return {
        "max_depth": max((b["max_depth"] for b in banks), default=0),
        "mean_depth": (sum(b["mean_depth"] for b in banks) / len(banks)
                       if banks else 0.0),
    }


def _summarize_message_latency(section: dict) -> dict:
    entries = section["round_trip"].values()
    count = sum(entry["count"] for entry in entries)
    total = sum(entry["total_cycles"]
                for entry in section["round_trip"].values())
    return {
        "responses": count,
        "mean_round_trip_cycles": (total / count) if count else 0.0,
        "max_round_trip_cycles": max(
            (entry["max_cycles"]
             for entry in section["round_trip"].values()), default=0),
    }


_PROBE_SUMMARIES = {
    "bank_contention": _summarize_bank_contention,
    "core_timeline": _summarize_core_timeline,
    "queue_occupancy": _summarize_queue_occupancy,
    "message_latency": _summarize_message_latency,
}
