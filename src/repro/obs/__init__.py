"""Platform observability: one record stream, trace export, control plane.

PR 3's telemetry watches the *simulated machine*; this package watches
the *harness running it* — the runner and its cache, the campaign
engine.  Every fact is one JSON line of an append-only event log
(:mod:`~repro.obs.eventlog`), written through one process-wide session
(:data:`OBS`) by the coordinator and every ``--jobs`` pool worker:

* lifecycle records — campaign, batch and point transitions, cache
  stores and evictions, workers spawning and exiting;
* while recording, nested wall-clock **spans** (``campaign →
  schedule-batch → point → build/run/collect-stats``) as
  ``span_begin``/``span_end`` records, plus ``counter``/``gauge``
  records.

Readers fold that stream: the Chrome trace-event JSON for Perfetto /
``chrome://tracing`` with its **metrics** (cache hit/miss/store/evict
counters, campaign budget gauges, per-category span timers and
power-of-two latency **histograms**, p50/p90/p99), ``repro obs
summary``, and ``repro status`` (:mod:`~repro.obs.status`), which adds
per-process heartbeat files (:mod:`~repro.obs.heartbeat`) to report
progress, ETA and worker liveness for a running, finished or killed
campaign without touching the process.  ``--profile`` adds opt-in
per-phase **cProfile** accumulation.

Everything is disabled by default at one-branch cost (bench-guarded by
``benchmarks/bench_obs.py``); the CLI records via ``--obs-trace FILE``
/ ``--profile OUT`` and opens the control plane via ``repro explore
--events``.  Traces, event logs and journals are all schema-validated
by ``python -m repro.obs``.
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
