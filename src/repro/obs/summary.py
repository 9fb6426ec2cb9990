"""``repro obs summary`` — utilization/cache/throughput from artifacts.

Answers "where did the time go" without opening Perfetto, from any
artifact the platform leaves behind:

* an ``--obs-trace`` Chrome trace: wall clock and per-category busy
  time come from the ``span.<cat>`` timers embedded in ``otherData``,
  cache and pool ratios from the counters — no span re-walking;
* a campaign ``journal.json``: the ``wall_ms``/``cache_hit`` fields
  each evaluation records (journal v2) attribute campaign time with no
  trace file at all, which is what ``repro explore`` runs in bulk CI
  jobs rely on;
* a campaign ``events.jsonl`` control-plane log: progress, budget burn
  and wall-time percentiles straight from the state transitions.

Detection is shared with ``repro status`` via
:mod:`repro.obs.artifacts`, which also handles the crash case: a
truncated artifact is salvaged back to its largest valid prefix and
summarized with a warning instead of refusing the file — a summary of
what a dead campaign *did* record is exactly when this command matters.
Unsalvageable garbage still fails loudly.
"""

from __future__ import annotations

from ..engine.errors import ConfigError
from .artifacts import load_artifact


def _ratio(part, whole) -> str:
    if not whole:
        return "n/a"
    return f"{100.0 * part / whole:.1f}%"


def _rate(count, seconds) -> str:
    if seconds <= 0:
        return "n/a"
    return f"{count / seconds:.1f}"


def trace_rows(document: dict, strict: bool = True) -> list:
    """Summary rows for a Chrome trace document.

    ``strict=False`` (a salvaged truncated trace) skips validation and
    reads every field defensively — report what parsed.
    """
    if strict:
        from .schema import SchemaError, validate_trace
        try:
            validate_trace(document)
        except SchemaError as exc:
            raise ConfigError(f"trace failed validation: {exc}")
    spans = [event for event in document.get("traceEvents", ())
             if isinstance(event, dict) and event.get("ph") == "X"]
    other = document.get("otherData", {}) or {}
    counters = other.get("counters", {}) or {}
    timers = other.get("timers", {}) or {}
    wall_s = max((event.get("ts", 0.0) + event.get("dur", 0.0)
                  for event in spans), default=0.0) / 1e6
    lanes = {event.get("tid", 0) for event in spans} or {0}
    points = timers.get("span.point", {}).get("count", 0)
    busy_s = timers.get("span.point", {}).get("total_s", 0.0)
    hits = counters.get("cache.hit", 0)
    misses = counters.get("cache.miss", 0)
    builds = counters.get("pool.build", 0)
    resets = counters.get("pool.reset", 0)
    rows = [
        ("wall clock (s)", round(wall_s, 3)),
        ("spans", len(spans)),
        ("lanes", len(lanes)),
        ("points run", points),
        ("points/sec", _rate(points, wall_s)),
        ("point utilization", _ratio(busy_s, wall_s * len(lanes))),
        ("cache hit rate", _ratio(hits, hits + misses)),
        ("cache stores", counters.get("cache.store", 0)),
        ("cache evictions", counters.get("cache.evict", 0)),
        ("pool reuse ratio", _ratio(resets, builds + resets)),
    ]
    for name in sorted(timers):
        if not name.startswith("span."):
            continue
        timer = timers[name]
        rows.append((f"{name[len('span.'):]} time (s)",
                     round(timer.get("total_s", 0.0), 3)))
    histograms = other.get("histograms", {}) or {}
    point_hist = histograms.get("span.point")
    if isinstance(point_hist, dict):
        from .metrics import Histogram
        summary = Histogram.from_dict(point_hist).summary()
        rows.append(("point p50/p90/p99 (s)",
                     "/".join(f"{summary[key]:.4f}"
                              for key in ("p50_s", "p90_s", "p99_s"))))
    return rows


def journal_rows(document: dict, strict: bool = True) -> list:
    """Summary rows for a campaign journal (wall_ms attribution)."""
    if strict:
        from ..dse.schema import SchemaError, validate_journal
        try:
            validate_journal(document)
        except SchemaError as exc:
            raise ConfigError(f"journal failed validation: {exc}")
    evaluations = [record for record in
                   document.get("evaluations", ())
                   if isinstance(record, dict)]
    paid = sum(1 for record in evaluations if not record.get("cached"))
    cache_hits = sum(1 for record in evaluations
                     if record.get("cache_hit", False))
    wall_ms = sum(record.get("wall_ms", 0.0) for record in evaluations)
    wall_s = wall_ms / 1000.0
    return [
        ("status", document.get("status", "unknown")),
        ("evaluations", len(evaluations)),
        ("paid (fresh sims)", paid),
        ("free (cache/replay/repeat)", len(evaluations) - paid),
        ("cache hits", cache_hits),
        ("cache hit rate", _ratio(cache_hits, len(evaluations))),
        ("simulated wall (s)", round(wall_s, 3)),
        ("points/sec (paid)", _rate(paid, wall_s)),
    ]


def events_rows(records: list) -> list:
    """Summary rows for a control-plane event log."""
    from .status import aggregate_events
    agg = aggregate_events(records)
    finished = agg["finished"]
    status = (finished["status"] if finished is not None
              else "(no campaign_finished — running or killed)")
    wall = agg["wall"]
    return [
        ("status", status),
        ("writer sessions", agg["sessions"]),
        ("events (session/total)",
         f"{agg['events']}/{agg['events_total']}"),
        ("batches scheduled", agg["batches"]),
        ("points finished", agg["points"]),
        ("paid (fresh sims)", agg["paid"]),
        ("free (cache/replay/repeat)", agg["free"]),
        ("cache hits", agg["cache_hits"]),
        ("cache hit rate", _ratio(agg["cache_hits"], agg["points"])),
        ("cache stores", agg["cache_stores"]),
        ("cache evictions", agg["cache_evicts"]),
        ("workers spawned/exited",
         f"{agg['workers_spawned']}/{agg['workers_exited']}"),
        ("paid wall p50/p90/p99 (s)",
         "/".join(f"{wall[key]:.3f}"
                  for key in ("p50_s", "p90_s", "p99_s"))),
    ]


def render_summary(path: str) -> str:
    """The summary table for a trace, journal, or event-log file."""
    from ..eval.reporting import render_table
    kind, payload, warnings = load_artifact(path, tolerant=True)
    if kind == "report":
        raise ConfigError(
            f"{path!r} is a telemetry report: repro obs summary reads "
            f"traces, journals and event logs (validate reports with "
            f"'python -m repro.obs')")
    if kind == "events":
        rows = events_rows(payload)
    elif kind == "trace":
        rows = trace_rows(payload, strict=not warnings)
    else:
        rows = journal_rows(payload, strict=not warnings)
    out = render_table(["field", "value"], rows,
                       title=f"obs summary ({kind}): {path}")
    for warning in warnings:
        out += f"\nwarning: {warning}"
    return out
