"""The process-wide observability session.

All instrumentation in the harness talks to one module-level
:data:`OBS` session, for the same reason the simulator's telemetry hub
is process-global: threading an observer handle through
``run_experiments`` → ``run_scenarios`` → ``execute`` would change
every signature between the CLI and the innermost phase.  The cost
discipline matches PR 3's simulator hooks — disabled (the default),
every site is one attribute load plus a branch, bench-guarded by
``benchmarks/bench_obs.py``::

    if OBS.enabled:
        OBS.inc("cache.hit")

    with OBS.span("run", cat="phase"):
        ...   # a no-op null context manager while disabled

Enabled (``--obs-trace`` / ``--profile``), the session owns one
:class:`~repro.obs.tracer.SpanTracer`, one
:class:`~repro.obs.metrics.MetricsRegistry` and optionally one
:class:`~repro.obs.profile.PhaseProfiler`.  Pool workers run their own
fresh session per call and ship a :meth:`~ObsSession.snapshot` back;
the parent folds snapshots in **call order** via
:meth:`~ObsSession.merge_worker`, so counter totals and span parentage
are identical for any ``--jobs`` value.  Every closed span also feeds
the ``span.<cat>`` timer, which is how ``repro obs summary`` reads
utilization out of an exported trace without re-walking the spans.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from .metrics import MetricsRegistry
from .profile import PhaseProfiler
from .schema import TRACE_VERSION
from .tracer import SpanTracer


class _NullSpan:
    """The shared do-nothing span returned while the session is off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager for one live span (session enabled)."""

    __slots__ = ("_session", "_name", "_cat", "_args", "_span", "_profiled")

    def __init__(self, session: "ObsSession", name: str, cat: str,
                 args: dict) -> None:
        self._session = session
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self):
        session = self._session
        self._span = session.tracer.begin(self._name, self._cat, self._args)
        self._profiled = (session.profiler is not None
                          and self._cat == "phase"
                          and session.profiler.start(self._name))
        return self._span

    def __exit__(self, exc_type, exc, tb):
        session = self._session
        seconds = session.tracer.end(self._span)
        if self._profiled:
            session.profiler.stop(self._name, seconds)
        session.metrics.observe("span." + self._cat, seconds)
        session.metrics.histo("span." + self._cat, seconds)
        return False


class ObsSession:
    """One process's observability state; use the :data:`OBS` singleton."""

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = SpanTracer()
        self.metrics = MetricsRegistry()
        self.profiler: Optional[PhaseProfiler] = None
        self.origin = 0.0
        #: The on-disk control plane, opened per campaign via
        #: :meth:`open_events`.  Independent of :attr:`enabled` — the
        #: event log is durable state, not an in-memory recording —
        #: and ``None`` by default, so every emission site is the same
        #: one-attr-load-plus-branch as the trace hooks.
        self.events = None
        self.heartbeat = None
        #: Worker pid -> rendering lane, assigned in merge (= call)
        #: order so lane numbering is deterministic for a given run.
        self._tracks: dict = {}

    # -- lifecycle ------------------------------------------------------------

    def enable(self, profile: bool = False) -> None:
        """Start a fresh recording session (drops any previous data)."""
        self.tracer.clear()
        self.metrics.clear()
        self.profiler = PhaseProfiler() if profile else None
        self._tracks = {}
        self.origin = time.perf_counter()
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (buffers stay readable until the next enable)."""
        self.enabled = False

    def open_events(self, path: str, role: str = "coordinator",
                    heartbeat: bool = True,
                    heartbeat_interval: float = None):
        """Open the on-disk control plane: event log + heartbeat.

        ``path`` is the ``events.jsonl`` file; the heartbeat directory
        lives beside it.  Replaces any previously open control plane.
        Orthogonal to :meth:`enable` — campaigns can write events
        without paying for span recording, and vice versa.
        """
        from .eventlog import EventLog
        from .heartbeat import DEFAULT_INTERVAL, Heartbeat
        from .heartbeat import heartbeat_dir as resolve_heartbeat_dir
        self.close_events()
        self.events = EventLog(path)
        if heartbeat:
            directory = os.path.dirname(os.path.abspath(path))
            interval = (DEFAULT_INTERVAL if heartbeat_interval is None
                        else heartbeat_interval)
            self.heartbeat = Heartbeat(resolve_heartbeat_dir(directory),
                                       role=role,
                                       interval=interval).start()
        return self.events

    def close_events(self, keep_heartbeat: bool = False) -> None:
        """Close the control plane; removes this process's heartbeat
        file (unless ``keep_heartbeat``) so a clean exit reads as one."""
        monitor, self.heartbeat = self.heartbeat, None
        if monitor is not None:
            monitor.stop(remove=not keep_heartbeat)
        log, self.events = self.events, None
        if log is not None:
            log.close()

    def emit(self, event: str, **fields) -> None:
        """Emit one control-plane event if the log is open, else no-op."""
        log = self.events
        if log is not None:
            log.emit(event, **fields)

    # -- recording ------------------------------------------------------------

    def span(self, name: str, cat: str = "phase", **args):
        """A context manager timing one nested region.

        ``cat`` buckets spans for the summary (``campaign``,
        ``schedule``, ``point``, ``phase``); ``args`` become the span's
        Chrome-trace args, so keep them small JSON scalars.  Disabled
        sessions return a shared null context manager — callers never
        branch themselves.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanHandle(self, name, cat, args)

    def inc(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.metrics.inc(name, amount)

    def gauge(self, name: str, value) -> None:
        if self.enabled:
            self.metrics.gauge(name, value)

    def observe(self, name: str, seconds: float) -> None:
        if self.enabled:
            self.metrics.observe(name, seconds)

    # -- cross-process merging -----------------------------------------------

    def snapshot(self) -> dict:
        """This process's closed spans + metrics, picklable for the
        parent's :meth:`merge_worker`."""
        snap = self.metrics.snapshot()
        snap["pid"] = os.getpid()
        snap["spans"] = list(self.tracer.spans)
        return snap

    def merge_worker(self, snap: dict) -> None:
        """Fold a worker snapshot into this session.

        Must be called in a deterministic order (the runner merges in
        call order, which ``pool.map`` guarantees): span ids are
        rebased past this tracer's counter, worker-top-level spans are
        adopted under the currently open span, and each worker pid gets
        a stable rendering lane by first appearance.
        """
        if not self.enabled or not snap:
            return
        pid = snap.get("pid")
        track = self._tracks.get(pid)
        if track is None:
            track = self._tracks[pid] = len(self._tracks) + 1
        base = self.tracer.next_id
        current = self.tracer.current
        adopt_parent = current["id"] if current is not None else None
        rebased = []
        top = base
        for span in snap.get("spans", ()):
            span = dict(span)
            span["id"] += base
            top = max(top, span["id"])
            span["parent"] = (span["parent"] + base
                              if span["parent"] is not None
                              else adopt_parent)
            span["track"] = track
            rebased.append(span)
        if rebased:
            self.tracer.next_id = top + 1
            self.tracer.adopt(rebased)
        self.metrics.merge(snap.get("counters"), snap.get("gauges"),
                           snap.get("timers"), snap.get("histograms"))

    # -- export ---------------------------------------------------------------

    def trace_document(self) -> dict:
        """The session as a Chrome trace-event JSON document.

        ``ts``/``dur`` are microseconds relative to :meth:`enable`, so
        the trace starts near zero in Perfetto.  The metrics snapshot
        rides along in ``otherData`` (viewers ignore it), which lets
        ``repro obs summary`` report cache and throughput figures from
        the trace file alone.
        """
        origin = self.origin
        spans = sorted(self.tracer.spans,
                       key=lambda s: (s["start"], s["id"]))
        lanes = sorted({span["track"] for span in spans} | {0})
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": "repro harness"}}]
        for lane in lanes:
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
                "args": {"name": "main" if lane == 0
                         else f"worker-{lane}"}})
        for span in spans:
            events.append({
                "name": span["name"],
                "cat": span["cat"],
                "ph": "X",
                "ts": round((span["start"] - origin) * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "pid": 1,
                "tid": span["track"],
                "args": dict(span["args"], id=span["id"],
                             parent=span["parent"]),
            })
        snap = self.metrics.snapshot()
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tool": "repro.obs",
                "version": TRACE_VERSION,
                "counters": snap["counters"],
                "gauges": snap["gauges"],
                "timers": snap["timers"],
                "histograms": snap["histograms"],
            },
        }

    def export_chrome_trace(self, path: str) -> str:
        """Atomically write :meth:`trace_document` as JSON; returns
        ``path``."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as stream:
            json.dump(self.trace_document(), stream, indent=2,
                      sort_keys=True)
            stream.write("\n")
        os.replace(tmp, path)
        return path

    def dump_profile(self, path: str) -> Optional[str]:
        """Write the hottest profiled phase's pstats to ``path``;
        returns the phase name (``None`` when profiling was off or no
        phase ran)."""
        if self.profiler is None:
            return None
        return self.profiler.dump(path)


#: The process-wide session every instrumentation site reports to.
OBS = ObsSession()
