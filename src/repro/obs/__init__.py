"""Platform observability: spans, metrics, trace export, control plane.

PR 3's telemetry watches the *simulated machine*; this package watches
the *harness running it* — the runner and its cache, the campaign
engine.  One process-wide session (:data:`OBS`) collects:

* nested wall-clock **spans** (``campaign → schedule-batch → point →
  build/run/collect-stats``) that merge deterministically across
  ``--jobs`` worker processes and export as Chrome trace-event JSON
  for Perfetto / ``chrome://tracing``;
* **metrics** — cache hit/miss/store/evict counters, campaign budget
  gauges, per-category span timers and power-of-two latency
  **histograms** (p50/p90/p99);
* opt-in per-phase **cProfile** accumulation (``--profile``);
* the on-disk **campaign control plane** — an append-only
  ``events.jsonl`` of state transitions (:mod:`~repro.obs.eventlog`)
  plus per-process heartbeat files (:mod:`~repro.obs.heartbeat`) —
  which is what ``repro status`` (:mod:`~repro.obs.status`) reads to
  report progress, ETA and worker liveness for a running, finished or
  killed campaign without touching the process.

Everything is disabled by default at one-branch cost (bench-guarded by
``benchmarks/bench_obs.py``); the CLI enables recording via
``--obs-trace FILE`` / ``--profile OUT`` and the control plane via
``repro explore --events``, and reads artifacts back with ``repro obs
summary`` / ``repro status``.  Traces, event logs and journals are all
schema-validated by ``python -m repro.obs``.
"""

from .artifacts import load_artifact, salvage_json
from .eventlog import (
    EVENTS_VERSION,
    EventLog,
    events_path,
    read_events,
    validate_events,
)
from .heartbeat import Heartbeat, liveness, read_heartbeats
from .metrics import Histogram, MetricsRegistry
from .profile import PhaseProfiler
from .schema import TRACE_VERSION, SchemaError, validate_trace
from .session import OBS, ObsSession
from .status import collect_status, follow, render_status
from .summary import render_summary
from .tracer import SpanTracer

__all__ = [
    "EVENTS_VERSION",
    "EventLog",
    "Heartbeat",
    "Histogram",
    "MetricsRegistry",
    "OBS",
    "ObsSession",
    "PhaseProfiler",
    "SchemaError",
    "SpanTracer",
    "TRACE_VERSION",
    "collect_status",
    "events_path",
    "follow",
    "liveness",
    "load_artifact",
    "read_events",
    "read_heartbeats",
    "render_status",
    "render_summary",
    "salvage_json",
    "validate_events",
    "validate_trace",
]
