"""``repro status`` — live campaign state from on-disk artifacts only.

Reconstructs what a campaign is doing (or was doing when it died) from
the two files the control plane leaves behind — ``events.jsonl`` and
``journal.json`` — never from the process itself.  The same code
therefore answers for a still-running campaign, a finished one, and
one SIGKILLed mid-batch; the only difference is what the artifacts
say.

Reconstruction rules worth knowing:

* The event log may span several writer sessions (a campaign resumed
  after a kill appends to the same file).  Progress is computed from
  the records after the **last** ``campaign_started`` — and because a
  resumed campaign re-emits ``point_finished`` for every replayed
  record, that slice alone reconciles exactly against the journal.
* Worker liveness is a fold over the same records: every pid that
  wrote a ``heartbeat`` is one writer, judged by its newest record of
  any kind — ``ok`` while fresh, ``stale`` once older than
  ``stale_after`` with the pid still alive (a wedged simulation),
  ``dead`` once the pid is gone (crash, SIGKILL, OOM-kill).  A writer
  whose newest record is its farewell (``final``) closed cleanly and
  is not listed.
* The overall state is decided by evidence strength: an explicit
  ``campaign_finished`` wins; otherwise the liveness of the writer of
  the last ``campaign_started`` (``running`` / ``stalled`` /
  ``dead``), so a resumed campaign is judged by its own coordinator,
  not the killed one; otherwise whatever the journal's ``status``
  field claims.
* ETA multiplies the remaining paid budget by the p50 of a rolling
  window of recent paid ``wall_ms`` values (a
  :class:`~repro.obs.metrics.Histogram`), divided by the live worker
  count — deliberately a smoothed, conservative estimate.
"""

from __future__ import annotations

import os
import time

from ..engine.errors import ConfigError
from .eventlog import EVENTS_NAME, events_path, read_events
from .metrics import Histogram

#: Paid wall_ms samples feeding the ETA histogram.
ETA_WINDOW = 32

#: Seconds of silence after which a live pid reads as ``stale``: far
#: longer than a heartbeat interval, so a busy worker is never stale.
DEFAULT_STALE_AFTER = 10.0


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` currently exists (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    except OSError:
        return False
    return True


def liveness(record: dict, now: float = None,
             stale_after: float = DEFAULT_STALE_AFTER) -> str:
    """Classify a writer by its newest record: ``ok``/``stale``/``dead``."""
    if now is None:
        now = time.time()
    if not pid_alive(record["pid"]):
        return "dead"
    return "stale" if now - record["ts"] > stale_after else "ok"


def fold_writers(records: list, now: float,
                 stale_after: float = DEFAULT_STALE_AFTER) -> list:
    """The workers table: one entry per pid that wrote a ``heartbeat``
    and has not since closed with its farewell, by pid."""
    newest: dict = {}
    beats: dict = {}
    for record in records:
        pid = record.get("pid")
        if not isinstance(pid, int) \
                or not isinstance(record.get("ts"), (int, float)):
            continue  # no well-formed envelope: no writer to judge
        newest[pid] = record
        if record.get("event") == "heartbeat":
            beats[pid] = record
    workers = []
    for pid, beat in beats.items():
        record = newest[pid]
        if record.get("final"):
            continue
        workers.append({
            "pid": pid,
            "role": beat.get("role", "worker"),
            "liveness": liveness(record, now=now, stale_after=stale_after),
            "age_s": round(now - record["ts"], 3),
            "points": beat.get("points", 0),
            "current": beat.get("current"),
            "last_seq": record.get("seq"),
        })
    workers.sort(key=lambda entry: entry["pid"])
    return workers


def resolve_campaign_dir(path: str) -> str:
    """Accept a campaign directory, its journal, or its event log."""
    if os.path.isdir(path):
        return path
    if os.path.basename(path) in ("journal.json", EVENTS_NAME) \
            or os.path.exists(path):
        return os.path.dirname(os.path.abspath(path))
    raise ConfigError(
        f"cannot read {path!r}: not a campaign directory, journal, or "
        f"event log")


def aggregate_events(records: list) -> dict:
    """Campaign progress figures from parsed event records.

    Counts cover the last writer session (see the module docstring);
    worker spawn/exit tallies cover the whole file, since pool workers
    of the current session restart their ``seq`` at 0 but their spawn
    events interleave anywhere after the session start.
    """
    records = [record for record in records
               if record.get("event") != "heartbeat"]
    start = 0
    sessions = 0
    for position, record in enumerate(records):
        if record.get("event") == "campaign_started":
            sessions += 1
            start = position
    session = records[start:]
    campaign = {}
    finished = None
    batches = 0
    points = paid = cache_hits = 0
    stores = evicts = 0
    spawned = exited = 0
    started: dict = {}
    finished_points: dict = {}
    wall = Histogram()
    recent: list = []
    for record in session:
        event = record.get("event")
        if event == "campaign_started":
            campaign = {key: record[key] for key in
                        ("workload", "sampler", "budget", "seed",
                         "jobs", "batch", "resumed") if key in record}
        elif event == "campaign_finished":
            finished = {"status": record.get("status"),
                        "points": record.get("points"),
                        "paid": record.get("paid")}
        elif event == "batch_scheduled":
            batches += 1
        elif event == "point_started":
            key = record.get("spec_hash")
            started[key] = started.get(key, 0) + 1
        elif event == "point_finished":
            points += 1
            if record.get("paid"):
                paid += 1
                wall_ms = record.get("wall_ms", 0.0)
                wall.observe(wall_ms / 1000.0)
                recent.append(wall_ms)
                if len(recent) > ETA_WINDOW:
                    recent.pop(0)
            if record.get("cache_hit"):
                cache_hits += 1
            key = record.get("spec_hash")
            finished_points[key] = finished_points.get(key, 0) + 1
        elif event == "cache_store":
            stores += 1
        elif event == "cache_evict":
            evicts += record.get("count", 1)
        elif event == "worker_spawned":
            spawned += 1
        elif event == "worker_exited":
            exited += 1
    matched = sum(min(count, finished_points.get(key, 0))
                  for key, count in started.items())
    inflight = sum(started.values()) - matched
    recent_hist = Histogram()
    for wall_ms in recent:
        recent_hist.observe(wall_ms / 1000.0)
    timestamps = [record["ts"] for record in session
                  if isinstance(record.get("ts"), (int, float))]
    return {
        "sessions": sessions,
        "campaign": campaign,
        "finished": finished,
        "batches": batches,
        "points": points,
        "paid": paid,
        "free": points - paid,
        "cache_hits": cache_hits,
        "cache_stores": stores,
        "cache_evicts": evicts,
        "workers_spawned": spawned,
        "workers_exited": exited,
        "inflight": max(0, inflight),
        "wall": wall.summary(),
        "recent_wall": recent_hist.summary(),
        "first_ts": min(timestamps) if timestamps else None,
        "last_ts": max(timestamps) if timestamps else None,
        "events": len(session),
        "events_total": len(records),
    }


def _journal_summary(document: dict) -> dict:
    evaluations = [record for record in document.get("evaluations", [])
                   if isinstance(record, dict)]
    paid = sum(1 for record in evaluations if not record.get("cached"))
    hits = sum(1 for record in evaluations
               if record.get("cache_hit", False))
    return {
        "status": document.get("status", "unknown"),
        "evaluations": len(evaluations),
        "paid": paid,
        "cache_hits": hits,
        "budget": (document.get("campaign") or {}).get("budget"),
    }


def collect_status(path: str, stale_after: float = DEFAULT_STALE_AFTER,
                   now: float = None) -> dict:
    """One JSON-able snapshot of a campaign's on-disk state."""
    directory = resolve_campaign_dir(path)
    if now is None:
        now = time.time()
    warnings = []

    journal = None
    journal_file = os.path.join(directory, "journal.json")
    if os.path.exists(journal_file):
        from ..dse.journal import load_journal_tolerant
        try:
            document, journal_warnings = load_journal_tolerant(journal_file)
            journal = _journal_summary(document)
            warnings.extend(f"journal: {text}"
                            for text in journal_warnings)
        except ConfigError as exc:
            warnings.append(f"journal: {exc}")

    agg = None
    records = []
    events_file = events_path(directory)
    if os.path.exists(events_file):
        records, event_warnings = read_events(events_file)
        warnings.extend(f"events: {text}" for text in event_warnings)
        if records:
            agg = aggregate_events(records)

    workers = fold_writers(records, now, stale_after)
    owner = None
    for record in records:
        if record.get("event") == "campaign_started":
            owner = record.get("pid")
    coordinator = next((entry for entry in workers
                        if entry["pid"] == owner), None)

    if agg is not None and agg["finished"] is not None:
        state = f"finished ({agg['finished']['status']})"
    elif coordinator is not None:
        state = {
            "ok": "running",
            "stale": (f"stalled (coordinator pid {coordinator['pid']} "
                      f"silent for {coordinator['age_s']:.1f}s)"),
            "dead": (f"dead (coordinator pid {coordinator['pid']} is "
                     f"gone — killed?)"),
        }[coordinator["liveness"]]
    elif workers:
        alive = [entry for entry in workers
                 if entry["liveness"] != "dead"]
        state = "running (workers only)" if alive else \
            "dead (all workers gone)"
    elif journal is not None:
        state = {"complete": "finished (complete)",
                 "budget": "finished (budget)",
                 "partial": "interrupted (partial journal)"}.get(
                     journal["status"], journal["status"])
    elif agg is not None:
        state = "interrupted (event log only)"
    else:
        state = "unknown (no artifacts)"

    budget = None
    if agg is not None and agg["campaign"].get("budget") is not None:
        budget = agg["campaign"]["budget"]
    elif journal is not None:
        budget = journal.get("budget")

    points = agg["points"] if agg is not None else (
        journal["evaluations"] if journal is not None else 0)
    paid = agg["paid"] if agg is not None else (
        journal["paid"] if journal is not None else 0)
    cache_hits = agg["cache_hits"] if agg is not None else (
        journal["cache_hits"] if journal is not None else 0)

    finished = state.startswith("finished")
    fraction = None
    if finished:
        fraction = 1.0
    elif budget:
        fraction = min(1.0, paid / budget)

    points_per_sec = None
    if agg is not None and agg["first_ts"] is not None:
        elapsed = agg["last_ts"] - agg["first_ts"]
        if elapsed > 0 and agg["points"]:
            points_per_sec = round(agg["points"] / elapsed, 3)

    eta_s = None
    if not finished and budget is not None and agg is not None:
        remaining = max(0, budget - paid)
        p50 = agg["recent_wall"]["p50_s"]
        if remaining and p50 > 0:
            lanes = sum(1 for entry in workers
                        if entry["liveness"] == "ok") or 1
            eta_s = round(remaining * p50 / lanes, 3)

    if agg is not None and journal is not None \
            and journal["evaluations"] != agg["points"]:
        warnings.append(
            f"journal trails event log: {journal['evaluations']} "
            f"evaluations on disk vs {agg['points']} points finished "
            f"(the batch in flight is journaled at the next checkpoint)")

    return {
        "directory": os.path.abspath(directory),
        "state": state,
        "now": now,
        "budget": budget,
        "points": points,
        "paid": paid,
        "free": points - paid,
        "cache_hits": cache_hits,
        "cache_hit_rate": (round(cache_hits / points, 4)
                           if points else None),
        "fraction": fraction,
        "points_per_sec": points_per_sec,
        "eta_s": eta_s,
        "events": agg,
        "journal": journal,
        "workers": workers,
        "warnings": warnings,
    }


def _bar(fraction, width: int) -> str:
    if fraction is None:
        return "[" + "?" * width + "]"
    filled = int(round(fraction * width))
    filled = max(0, min(width, filled))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_status(status: dict, width: int = 40) -> str:
    """Human-readable rendering of a :func:`collect_status` snapshot."""
    from ..eval.reporting import render_table
    lines = [f"campaign: {status['directory']}",
             f"state:    {status['state']}"]
    fraction = status["fraction"]
    percent = f"{100.0 * fraction:5.1f}%" if fraction is not None \
        else "    ?%"
    budget = status["budget"]
    burn = (f"{status['paid']}/{budget} paid"
            if budget is not None else f"{status['paid']} paid")
    lines.append(f"progress: {_bar(fraction, width)} {percent}  "
                 f"({burn}, {status['free']} free)")
    figures = [
        ("points finished", status["points"]),
        ("paid (fresh sims)", status["paid"]),
        ("free (cache/replay/repeat)", status["free"]),
        ("cache hits", status["cache_hits"]),
        ("cache hit rate",
         f"{100.0 * status['cache_hit_rate']:.1f}%"
         if status["cache_hit_rate"] is not None else "n/a"),
    ]
    agg = status["events"]
    if agg is not None:
        figures.extend([
            ("batches scheduled", agg["batches"]),
            ("points in flight", agg["inflight"]),
            ("cache stores", agg["cache_stores"]),
            ("events (session/total)",
             f"{agg['events']}/{agg['events_total']}"),
            ("wall p50/p90/p99 (s)",
             "/".join(f"{agg['wall'][key]:.3f}"
                      for key in ("p50_s", "p90_s", "p99_s"))),
        ])
    if status["points_per_sec"] is not None:
        figures.append(("points/sec", status["points_per_sec"]))
    figures.append(("eta (s)",
                    status["eta_s"] if status["eta_s"] is not None
                    else "n/a"))
    lines.append("")
    lines.append(render_table(["field", "value"], figures))
    workers = status["workers"]
    if workers:
        rows = [(entry["pid"], entry["role"], entry["liveness"].upper(),
                 f"{entry['age_s']:.1f}", entry["points"],
                 (entry["current"] or "-")[:12],
                 entry["last_seq"] if entry["last_seq"] is not None
                 else "-")
                for entry in workers]
        lines.append("")
        lines.append(render_table(
            ["pid", "role", "live", "age (s)", "points", "current",
             "seq"], rows))
    for warning in status["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


def follow(path: str, interval: float = 1.0, timeout: float = None,
           stale_after: float = DEFAULT_STALE_AFTER, width: int = 40,
           echo=print, sleep=time.sleep, clock=time.time):
    """Poll and print status until the campaign finishes or dies.

    Returns the final snapshot.  ``echo``/``sleep``/``clock`` are
    injectable for tests.  A ``timeout`` (seconds) bounds the watch —
    ``--follow`` in CI must never hang a job.
    """
    deadline = clock() + timeout if timeout is not None else None
    while True:
        status = collect_status(path, stale_after=stale_after)
        echo(render_status(status, width=width))
        state = status["state"]
        if state.startswith(("finished", "dead", "interrupted",
                             "unknown")):
            return status
        if deadline is not None and clock() >= deadline:
            status["warnings"].append(
                f"follow: timeout after {timeout}s with campaign still "
                f"{state}")
            return status
        echo("")
        sleep(interval)
