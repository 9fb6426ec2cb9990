"""Append-only structured event log — the one record of harness activity.

Every campaign state transition becomes one JSON record on one line of
``events.jsonl``, written next to the journal: campaign started and
finished, each batch scheduled, each point started and finished (with
its cache-hit flag and ``wall_ms``), cache stores and evictions, and
pool workers spawning and exiting.  The journal remains the durable
*result* store; the event log is the durable *progress* store — it is
what lets a second process (``repro status``, a future coordinator, a
human with ``tail -f``) answer "how far along is this campaign and are
its workers alive" without attaching to the running interpreter.

A recording session (:meth:`~repro.obs.session.ObsSession.enable`)
writes into the same stream through the same :meth:`EventLog.emit`:
``span_begin``/``span_end`` (``span`` and ``parent`` ids, ``name``,
``cat``, ``args``; ``t`` in :func:`time.perf_counter` seconds) and
``counter``/``gauge`` records.  The Chrome trace and its metrics are
folds over them (:func:`repro.obs.session.fold_records`).

Design constraints, in order:

* **crash-safe**: appends are line-at-a-time — a single buffered
  ``write`` immediately flushed — so a SIGKILL can at worst truncate
  the final line.  :func:`read_events` treats a torn tail as a warning,
  never an error.
* **multi-process**: the coordinator and every pool worker append to
  the *same* file.  Line writes smaller than the libc buffer are one
  ``write(2)`` on an ``O_APPEND`` descriptor, which POSIX keeps atomic
  in practice; each record carries its writer's pid and a per-process
  monotonic ``seq`` so readers can order and gap-check per lane even
  though lanes interleave.
* **fork-tolerant**: a log handle inherited through ``fork`` (the pool
  start method on Linux) heals itself — the first ``emit`` in the child
  reopens the file and restarts its sequence at 0, which the validator
  recognizes as a new writer session.

Validated by ``python -m repro.obs events.jsonl`` alongside traces.
"""

from __future__ import annotations

import json
import os
import time

from ..engine.errors import ConfigError
from .schema import SchemaError, _require

#: Bump when the record layout changes incompatibly.
EVENTS_VERSION = 1

#: File name, by convention next to ``journal.json``.
EVENTS_NAME = "events.jsonl"

#: Event type -> required payload fields (beyond the envelope).
EVENT_TYPES = {
    "campaign_started": ("workload", "sampler", "budget"),
    "campaign_finished": ("status", "points", "paid"),
    "batch_scheduled": ("batch", "points", "fresh"),
    "point_started": ("spec_hash",),
    "point_finished": ("spec_hash", "cache_hit", "paid", "wall_ms"),
    "cache_store": (),
    "cache_evict": ("count",),
    "worker_spawned": ("role",),
    "worker_exited": ("points",),
    "journal_written": ("evaluations",),
    "span_begin": ("span", "parent", "name", "cat", "t"),
    "span_end": ("span", "t"),
    "counter": ("name", "amount"),
    "gauge": ("name", "value"),
}

#: Envelope fields present on every record.
_ENVELOPE = ("v", "seq", "pid", "ts", "event")

#: Fields that must be bools, per event type.  ``paid`` is a flag on
#: ``point_finished`` but a running *count* on ``campaign_finished``.
_BOOL_FIELDS = {"point_finished": ("cache_hit", "paid")}

#: Fields that must be non-negative ints, per event type.
_COUNT_FIELDS = {
    "campaign_started": ("budget",),
    "campaign_finished": ("points", "paid"),
    "batch_scheduled": ("points", "fresh"),
    "cache_evict": ("count",),
    "worker_exited": ("points",),
    "journal_written": ("evaluations",),
    "counter": ("amount",),
}


def events_path(directory: str) -> str:
    """The canonical event-log path inside a campaign directory."""
    return os.path.join(directory, EVENTS_NAME)


class EventLog:
    """One writer's append handle on an ``events.jsonl`` file.

    Cheap to hold open: ``emit`` is a dict build, a ``json.dumps`` and
    one flushed write.  Not thread-safe by design — the harness emits
    from one thread per process (heartbeats write their own files).
    """

    def __init__(self, path: str):
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self.path = path
        self._pid = os.getpid()
        self._seq = 0
        #: Unique to this writer session (pids recycle, and a fork heal
        #: starts a new session), so span ids stay unique across every
        #: process that ever appends to the file.
        self.writer = os.urandom(6).hex()
        self._stream = open(path, "a", encoding="utf-8")

    @property
    def last_seq(self) -> int:
        """Sequence number of the last record emitted (-1 before any)."""
        return self._seq - 1

    def emit(self, event: str, **fields) -> dict:
        """Append one record; returns the record written."""
        pid = os.getpid()
        if pid != self._pid:
            self._reopen(pid)
        record = {"v": EVENTS_VERSION, "seq": self._seq, "pid": pid,
                  "ts": round(time.time(), 6), "event": event}
        record.update(fields)
        self._seq += 1
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()
        return record

    def _reopen(self, pid: int) -> None:
        # Inherited through fork: the parent's descriptor position and
        # sequence belong to the parent.  Start a fresh writer session.
        try:
            self._stream.close()
        except OSError:
            pass
        self._stream = open(self.path, "a", encoding="utf-8")
        self._pid = pid
        self._seq = 0
        self.writer = os.urandom(6).hex()

    def close(self) -> None:
        try:
            self._stream.close()
        except OSError:
            pass

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parse_events(text: str):
    """``(records, warnings)`` from event-log text, tolerating a torn tail.

    Only the *final* non-empty line may be unparseable (the crash case);
    garbage mid-file is skipped with a warning rather than silently
    dropped, so validation can still flag it.
    """
    records = []
    warnings = []
    lines = text.split("\n")
    last_content = 0
    for number, line in enumerate(lines, 1):
        if line.strip():
            last_content = number
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            if number == last_content:
                warnings.append(
                    f"line {number}: truncated mid-write; ignored")
            else:
                warnings.append(f"line {number}: unparseable; skipped")
            continue
        if not isinstance(record, dict):
            warnings.append(f"line {number}: not a JSON object; skipped")
            continue
        records.append(record)
    return records, warnings


def read_events(path: str):
    """Read ``(records, warnings)`` from an event-log file."""
    try:
        with open(path, encoding="utf-8") as stream:
            text = stream.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}")
    return parse_events(text)


def validate_events(records) -> None:
    """Raise :class:`~.schema.SchemaError` unless records are valid.

    Beyond per-record shape, enforces the per-writer ordering contract:
    within one pid, ``seq`` increments by one — except a restart at 0,
    which marks a new writer session (fork heal, campaign resume).
    """
    if not isinstance(records, list):
        raise SchemaError(
            f"events must be a list, got {type(records).__name__}")
    last_seq = {}
    for position, record in enumerate(records):
        where = f"events[{position}]"
        version = _require(record, "v", int, where)
        if version != EVENTS_VERSION:
            raise SchemaError(
                f"{where}: v must be {EVENTS_VERSION}, got {version}")
        seq = _require(record, "seq", int, where)
        pid = _require(record, "pid", int, where)
        _require(record, "ts", (int, float), where)
        event = _require(record, "event", str, where)
        if event not in EVENT_TYPES:
            raise SchemaError(
                f"{where}: unknown event {event!r} (known: "
                f"{', '.join(sorted(EVENT_TYPES))})")
        for field in EVENT_TYPES[event]:
            if field not in record:
                raise SchemaError(
                    f"{where}: {event} record missing field {field!r}")
        for field in _BOOL_FIELDS.get(event, ()):
            if field in record and not isinstance(record[field], bool):
                raise SchemaError(
                    f"{where}: {field!r} must be a bool, "
                    f"got {record[field]!r}")
        for field in _COUNT_FIELDS.get(event, ()):
            if field not in record:
                continue
            value = record[field]
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise SchemaError(
                    f"{where}: {field!r} must be an int >= 0, "
                    f"got {value!r}")
        if "wall_ms" in record:
            wall = record["wall_ms"]
            if not isinstance(wall, (int, float)) or isinstance(wall, bool) \
                    or wall < 0:
                raise SchemaError(
                    f"{where}: wall_ms must be a number >= 0, got {wall!r}")
        previous = last_seq.get(pid)
        if previous is not None and seq not in (previous + 1, 0):
            raise SchemaError(
                f"{where}: pid {pid} seq jumped {previous} -> {seq} "
                f"(expected {previous + 1}, or 0 for a new session)")
        if previous is None and seq != 0:
            raise SchemaError(
                f"{where}: pid {pid} first record has seq {seq}, "
                f"expected 0")
        last_seq[pid] = seq


def validate_events_file(path: str):
    """Validate an event-log file; returns ``(records, warnings)``."""
    records, warnings = read_events(path)
    validate_events(records)
    return records, warnings
