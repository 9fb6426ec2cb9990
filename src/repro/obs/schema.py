"""Structural validation of every exported artifact.

Telemetry reports, campaign journals, platform traces and campaign
event logs are all validated against their documented layouts with
plain checks over the parsed data and zero schema dependencies.  This
module holds the pieces they share — :class:`SchemaError`,
:func:`_require` and the one command-line front end — plus the
Chrome-trace checks; the report, journal and event-log checks live
beside their writers in :mod:`repro.telemetry.schema`,
:mod:`repro.dse.schema` and :mod:`repro.obs.eventlog`.  It imports
nothing but the error hierarchy, so any layer can report through
:mod:`repro.obs` without an import cycle.

CI validates every artifact it uploads, so a layout that drifts fails
the pipeline instead of shipping a file Perfetto, ``repro frontier`` or
``repro obs summary`` cannot load.  Run standalone over one or more
files — the kind of each is detected by :mod:`repro.obs.artifacts`::

    python -m repro.obs report.json journal.json trace.json events.jsonl

exits 0 when every file validates, 2 with a ``schema:`` message
otherwise.
"""

from __future__ import annotations

import sys

from ..engine.errors import ConfigError

#: Bump when the exported trace layout changes incompatibly.
TRACE_VERSION = 1

#: Event phases we emit: complete spans and metadata.
_PHASES = ("X", "M")

_TIMER_KEYS = ("count", "total_s", "min_s", "max_s")


class SchemaError(ConfigError):
    """An exported artifact does not match its documented shape."""


def _require(data: dict, key: str, types, where: str):
    """``data[key]``, checked to be a ``types`` (never a bool).

    A ``data`` that is not a dict is itself a schema violation, so a
    corrupt container is reported at ``where`` instead of crashing.
    """
    if not isinstance(data, dict):
        raise SchemaError(
            f"{where}: must be a dict, got {type(data).__name__}")
    if key not in data:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = data[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(
            f"{where}: {key!r} must be {types}, got {type(value).__name__}")
    return value


def validate_trace(data: dict) -> None:
    """Raise :class:`SchemaError` unless ``data`` is a valid trace."""
    events = _require(data, "traceEvents", list, "trace")
    ids = set()
    parents = []
    for position, event in enumerate(events):
        where = f"trace.traceEvents[{position}]"
        _require(event, "name", str, where)
        phase = _require(event, "ph", str, where)
        if phase not in _PHASES:
            raise SchemaError(
                f"{where}: ph must be one of {_PHASES}, got {phase!r}")
        _require(event, "pid", int, where)
        _require(event, "tid", int, where)
        args = _require(event, "args", dict, where)
        if phase == "M":
            if event["name"] not in ("process_name", "thread_name"):
                raise SchemaError(
                    f"{where}: unknown metadata event {event['name']!r}")
            _require(args, "name", str, f"{where}.args")
            continue
        _require(event, "cat", str, where)
        for key in ("ts", "dur"):
            value = _require(event, key, (int, float), where)
            if value < 0:
                raise SchemaError(f"{where}: {key} must be >= 0, "
                                  f"got {value!r}")
        span_id = _require(args, "id", int, f"{where}.args")
        if span_id in ids:
            raise SchemaError(f"{where}: duplicate span id {span_id}")
        ids.add(span_id)
        if "parent" not in args:
            raise SchemaError(f"{where}.args: missing key 'parent'")
        parent = args["parent"]
        if parent is not None and not isinstance(parent, int):
            raise SchemaError(
                f"{where}.args: parent must be a span id or null, "
                f"got {parent!r}")
        if parent is not None:
            parents.append((where, parent))
    for where, parent in parents:
        if parent not in ids:
            raise SchemaError(
                f"{where}: orphaned span (parent {parent} is not among "
                f"the recorded spans)")
    other = data.get("otherData")
    if other is None:
        return
    if not isinstance(other, dict):
        raise SchemaError("trace: 'otherData' must be a dict")
    _require(other, "version", int, "trace.otherData")
    counters = _require(other, "counters", dict, "trace.otherData")
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(
                f"trace.otherData.counters[{name!r}]: must be an int, "
                f"got {value!r}")
    _require(other, "gauges", dict, "trace.otherData")
    timers = _require(other, "timers", dict, "trace.otherData")
    for name, timer in timers.items():
        where = f"trace.otherData.timers[{name!r}]"
        for key in _TIMER_KEYS:
            _require(timer, key, (int, float), where)
    histograms = other.get("histograms")
    if histograms is None:
        return  # pre-histogram traces stay valid
    if not isinstance(histograms, dict):
        raise SchemaError("trace.otherData: 'histograms' must be a dict")
    for name, histogram in histograms.items():
        where = f"trace.otherData.histograms[{name!r}]"
        _require(histogram, "count", int, where)
        _require(histogram, "total_s", (int, float), where)
        buckets = _require(histogram, "buckets", list, where)
        for position, occupancy in enumerate(buckets):
            if not isinstance(occupancy, int) or isinstance(occupancy,
                                                            bool):
                raise SchemaError(
                    f"{where}.buckets[{position}]: must be an int, "
                    f"got {occupancy!r}")


def main(argv=None) -> int:
    """Validate report / journal / trace / event-log files."""
    from .artifacts import load_artifact
    paths = sys.argv[1:] if argv is None else list(argv)
    if not paths:
        print("usage: python -m repro.obs "
              "{report.json|journal.json|trace.json|events.jsonl} [...]")
        return 2
    for path in paths:
        try:
            kind, payload, warnings = load_artifact(path)
            if kind == "report":
                from ..telemetry.schema import validate_report
                validate_report(payload)
                detail = ", ".join(sorted(payload["probes"])) or "no probes"
            elif kind == "journal":
                from ..dse.schema import validate_journal
                validate_journal(payload)
                detail = (f"{len(payload['evaluations'])} evaluations, "
                          f"status {payload['status']}")
            elif kind == "trace":
                validate_trace(payload)
                spans = sum(1 for event in payload["traceEvents"]
                            if event.get("ph") == "X")
                detail = (f"{spans} spans, "
                          f"{len(payload.get('otherData', {}).get('counters', {}))} "
                          f"counters")
            else:
                from .eventlog import validate_events
                validate_events(payload)
                writers = {record["pid"] for record in payload}
                detail = f"{len(payload)} events, {len(writers)} writers"
        except (ConfigError, OSError, ValueError) as exc:
            print(f"schema: {path}: {exc}")
            return 2
        print(f"schema: {path}: ok ({kind}: {detail})")
        for warning in warnings:
            print(f"schema: {path}: warning: {warning}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
