"""The process-wide observability session.

All instrumentation in the harness talks to one module-level
:data:`OBS` session, for the same reason the simulator's telemetry hub
is process-global: threading an observer handle through
``run_scenarios`` → ``simulate`` → ``execute`` would change every
signature between the CLI and the innermost phase.  The cost
discipline matches PR 3's simulator hooks — disabled (the default),
every site is one attribute load plus a branch, bench-guarded by
``benchmarks/bench_obs.py``::

    if OBS.enabled:
        OBS.inc("cache.hit")

    if OBS.events is not None:
        OBS.events.emit("cache_store", key=key)

    with OBS.span("run", cat="phase"):
        ...   # a no-op null context manager while disabled

:attr:`ObsSession.events` is the one sink for harness records: the
campaign's ``events.jsonl`` while the control plane is open
(:meth:`~ObsSession.open_events`), else — while enabled by
``--obs-trace`` / ``--profile`` — a private temporary log the session
deletes at the next :meth:`~ObsSession.enable` or when it goes away.
Enabled, the session adds ``span_begin``/``span_end``/``counter``/
``gauge`` records (:mod:`repro.obs.eventlog`); pool workers append to
the same file, their top-level spans parented by the coordinator span
open when the pool started (``scenarios.run._pool_worker_init``).
:meth:`~ObsSession.trace_document` and :attr:`~ObsSession.metrics` fold
the records back (:func:`fold_records`), so counter totals and the
span tree are the same for any ``--jobs`` value.  Every closed span
also feeds the ``span.<cat>`` timer, which is how ``repro obs summary``
reads utilization out of an exported trace without re-walking spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
import weakref
from typing import Optional

from .eventlog import EventLog, parse_events
from .metrics import MetricsRegistry
from .profile import PhaseProfiler
from .schema import TRACE_VERSION


#: The shared do-nothing span returned while the session is off.
_NULL_SPAN = contextlib.nullcontext()


class _SpanHandle:
    """Context manager for one live span (session enabled)."""

    __slots__ = ("_session", "_name", "_cat", "_args", "_span", "_start",
                 "_profiled")

    def __init__(self, session: "ObsSession", name: str, cat: str,
                 args: dict) -> None:
        self._session = session
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self):
        session = self._session
        log = session.events
        self._span = f"{log.writer}.{session._next_span}"
        session._next_span += 1
        self._start = time.perf_counter()
        log.emit("span_begin", span=self._span, parent=session.current,
                 name=self._name, cat=self._cat, t=self._start,
                 args=self._args)
        session._open.append(self._span)
        self._profiled = (session.profiler is not None
                          and self._cat == "phase"
                          and session.profiler.start(self._name))
        return self._span

    def __exit__(self, exc_type, exc, tb):
        session = self._session
        now = time.perf_counter()
        # Closing out of order (an exception unwound past an inner
        # span) force-closes everything opened after this span at the
        # same instant, so the records never hold a torn stack.
        while session._open:
            span = session._open.pop()
            if session.events is not None:
                session.events.emit("span_end", span=span, t=now)
            if span == self._span:
                break
        if self._profiled:
            session.profiler.stop(self._name, now - self._start)
        return False


def _remove_log(log: EventLog) -> None:
    log.close()
    try:
        os.unlink(log.path)
    except OSError:
        pass


def fold_records(records: list, origin: float = 0.0,
                 main_pid: Optional[int] = None):
    """``(spans, metrics)`` from harness records, in file order.

    ``spans`` are Chrome ``"X"`` events for every closed span, ids
    numbered in begin order, ``ts``/``dur`` in microseconds after
    ``origin`` (:func:`time.perf_counter` seconds), one lane per
    writing process (``main_pid`` on lane 0).  ``metrics`` is a
    :class:`~repro.obs.metrics.MetricsRegistry` holding the
    ``counter``/``gauge`` records, the cache and campaign counters the
    lifecycle events imply, and a ``span.<cat>`` timer and histogram
    per closed span.
    """
    metrics = MetricsRegistry()
    begun: dict = {}                  # span id -> (trace id, record)
    ends: dict = {}                   # trace id -> end t
    for record in records:
        event = record.get("event")
        if event == "span_begin":
            begun[record["span"]] = (len(begun), record)
        elif event == "span_end":
            opened = begun.get(record["span"])
            if opened is not None:
                ends[opened[0]] = record["t"]
                seconds = record["t"] - opened[1]["t"]
                metrics.observe("span." + opened[1]["cat"], seconds)
                metrics.histo("span." + opened[1]["cat"], seconds)
        elif event == "counter":
            metrics.inc(record["name"], record["amount"])
        elif event == "gauge":
            metrics.gauge(record["name"], record["value"])
        elif event == "cache_store":
            metrics.inc("cache.store")
        elif event == "cache_evict":
            metrics.inc("cache.evict", record["count"])
        elif event == "batch_scheduled":
            metrics.inc("campaign.points", record["points"])
            metrics.inc("campaign.paid", record["fresh"])
            metrics.inc("campaign.free", record["points"] - record["fresh"])
            metrics.gauge("campaign.budget_remaining",
                          record["budget_remaining"])
    lanes = {main_pid: 0}
    spans = []
    for span_id, begin in begun.values():
        if span_id not in ends:
            continue                  # still open: not in the trace
        parent = begun.get(begin["parent"], (None,))[0]
        spans.append({
            "name": begin["name"],
            "cat": begin["cat"],
            "ph": "X",
            "ts": round((begin["t"] - origin) * 1e6, 3),
            "dur": round((ends[span_id] - begin["t"]) * 1e6, 3),
            "pid": 1,
            "tid": lanes.setdefault(begin["pid"], len(lanes)),
            "args": dict(begin["args"], id=span_id,
                         parent=parent if parent in ends else None),
        })
    spans.sort(key=lambda span: (span["ts"], span["args"]["id"]))
    return spans, metrics


class ObsSession:
    """One process's observability state; use the :data:`OBS` singleton."""

    def __init__(self) -> None:
        self.enabled = False
        self.profiler: Optional[PhaseProfiler] = None
        self.origin = 0.0
        #: The record sink: the control plane's event log while one is
        #: open (:meth:`open_events`), else the private log while
        #: enabled, else ``None`` — so every emission site is the same
        #: one-attr-load-plus-branch as the span hooks.
        self.events = None
        self.heartbeat = None
        #: This session's own temporary log (see :meth:`enable`).
        self._private = None
        #: path -> [start, end] byte range this recording wrote to
        #: (``end`` is ``None`` while still recording there).
        self._sources: dict = {}
        #: Ids of the open spans, innermost last.
        self._open: list = []
        #: Parent of top-level spans: in a pool worker, the coordinator
        #: span that was open when the pool started.
        self._root = None
        self._next_span = 0

    # -- lifecycle ------------------------------------------------------------

    def enable(self, profile: bool = False) -> None:
        """Start a fresh recording (drops any previous one)."""
        old = self._private
        if old is not None:
            self._drop()
        fd, path = tempfile.mkstemp(prefix="repro-obs-", suffix=".jsonl")
        os.close(fd)
        self._private = EventLog(path)
        self._drop = weakref.finalize(self, _remove_log, self._private)
        if self.events is None or self.events is old:
            self.events = self._private
        self._sources = {}
        self._track(path)
        self._track(self.events.path)
        self._open = []
        self._root = None
        self._next_span = 0
        self.profiler = PhaseProfiler() if profile else None
        self.origin = time.perf_counter()
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (the records stay readable until the next
        enable)."""
        for path in self._sources:
            self._freeze(path)
        self.enabled = False
        if self.events is self._private:
            self.events = None

    def enter_worker(self, enabled: bool, parent) -> None:
        """Continue the coordinator's recording in a forked pool worker.

        The inherited event log, heartbeat and private log belong to
        the coordinator (closing its heartbeat would delete the
        coordinator's file), so they are dropped without touching disk
        before the worker opens its own appender with
        :meth:`open_events`.  ``parent`` is the coordinator span the
        worker's top-level spans hang under.
        """
        if self._private is not None:
            self._drop.detach()
        self.__init__()
        self.enabled = enabled
        self._root = parent

    def _track(self, path: str) -> None:
        source = self._sources.get(path)
        if source is None:
            self._sources[path] = [os.path.getsize(path), None]
        else:
            source[1] = None

    def _freeze(self, path: str) -> None:
        source = self._sources.get(path)
        if source is not None and source[1] is None:
            source[1] = os.path.getsize(path)

    def open_events(self, path: str, role: str = "coordinator",
                    heartbeat: bool = True,
                    heartbeat_interval: float = None):
        """Open the on-disk control plane: event log + heartbeat.

        ``path`` is the ``events.jsonl`` file; the heartbeat directory
        lives beside it.  Replaces any previously open control plane.
        Orthogonal to :meth:`enable` — campaigns can write events
        without recording spans; an enabled session records into this
        log until :meth:`close_events`.
        """
        from .heartbeat import DEFAULT_INTERVAL, Heartbeat
        from .heartbeat import heartbeat_dir as resolve_heartbeat_dir
        self.close_events()
        self.events = EventLog(path)
        if self.enabled:
            self._track(path)
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
        file (unless ``keep_heartbeat``) so a clean exit reads as one.
        An enabled session goes back to recording into its private
        log."""
        monitor, self.heartbeat = self.heartbeat, None
        if monitor is not None:
            monitor.stop(remove=not keep_heartbeat)
        log = self.events
        if log is None or log is self._private:
            return
        self.events = self._private if self.enabled else None
        self._freeze(log.path)
        log.close()

    # -- recording ------------------------------------------------------------

    def span(self, name: str, cat: str = "phase", **args):
        """A context manager timing one nested region.

        ``cat`` buckets spans for the summary (``campaign``,
        ``schedule``, ``point``, ``phase``); ``args`` become the span's
        Chrome-trace args, so keep them small JSON scalars.  Disabled
        sessions return a shared null context manager — callers never
        branch themselves.  Entering yields the span's id.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanHandle(self, name, cat, args)

    @property
    def current(self):
        """Id of the innermost open span: the next span's parent."""
        return self._open[-1] if self._open else self._root

    def inc(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.events.emit("counter", name=name, amount=amount)

    def gauge(self, name: str, value) -> None:
        if self.enabled:
            self.events.emit("gauge", name=name, value=value)

    # -- readers --------------------------------------------------------------

    def records(self) -> list:
        """This recording's records, read back from every log it wrote
        to (pool workers' appends included)."""
        records = []
        for path, (start, end) in self._sources.items():
            try:
                with open(path, "rb") as stream:
                    stream.seek(start)
                    data = stream.read(-1 if end is None else end - start)
            except OSError:
                continue
            records.extend(parse_events(data.decode("utf-8", "replace"))[0])
        return records

    @property
    def metrics(self) -> MetricsRegistry:
        """This recording's counters, gauges, timers and histograms."""
        return fold_records(self.records())[1]

    def trace_document(self) -> dict:
        """The recording as a Chrome trace-event JSON document.

        ``ts``/``dur`` are microseconds relative to :meth:`enable`, so
        the trace starts near zero in Perfetto.  The metrics snapshot
        rides along in ``otherData`` (viewers ignore it), which lets
        ``repro obs summary`` report cache and throughput figures from
        the trace file alone.
        """
        spans, metrics = fold_records(self.records(), self.origin,
                                      os.getpid())
        lanes = sorted({span["tid"] for span in spans} | {0})
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": "repro harness"}}]
        for lane in lanes:
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
                "args": {"name": "main" if lane == 0
                         else f"worker-{lane}"}})
        events.extend(spans)
        snap = metrics.snapshot()
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
