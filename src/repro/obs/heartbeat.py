"""Worker heartbeats: per-process liveness records on disk.

The event log says what a campaign *did*; heartbeats say whether the
processes doing it are still *alive*.  Each participant — the campaign
coordinator and every pool worker — owns one small JSON file under
``heartbeats/`` next to the journal and rewrites it atomically on a
timer thread plus at every point boundary.  A reader (``repro status``)
classifies each record against a pluggable staleness threshold:

* ``ok``    — the beat is fresh;
* ``stale`` — the pid still exists but the beat is older than the
  threshold (a wedged simulation, a stuck NFS write);
* ``dead``  — the pid is gone (crash, SIGKILL, OOM-kill).

Records are tiny and self-describing: pid, role, the writer's last
event-log sequence number, points completed, the spec hash currently
simulating, beat counters and timestamps.  Atomic rewrite (temp file +
``os.replace``) means a reader never sees a torn record, and a clean
shutdown removes the file so finished campaigns do not look dead.  A
writer killed mid-beat leaves its temp file behind; the next writer to
start in the directory deletes it.
"""

from __future__ import annotations

import json
import os
import threading
import time

#: Directory name, by convention next to ``journal.json``.
HEARTBEAT_DIR = "heartbeats"

#: Bump when the record layout changes incompatibly.
HEARTBEAT_VERSION = 1

#: Default seconds between timer-thread beats.
DEFAULT_INTERVAL = 0.5

#: Default staleness threshold when none is configured: a beat this
#: old from a live pid means the worker is wedged, not merely busy.
DEFAULT_STALE_AFTER = 10.0


def heartbeat_dir(directory: str) -> str:
    """The canonical heartbeat directory inside a campaign directory."""
    return os.path.join(directory, HEARTBEAT_DIR)


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


class Heartbeat:
    """One process's heartbeat file, refreshed by a daemon thread.

    ``start()`` spawns the timer thread; point boundaries additionally
    beat inline via :meth:`point_started` / :meth:`point_finished` so a
    busy worker's record also advances between timer ticks.  ``stop()``
    joins the thread and (by default) removes the file — a surviving
    file therefore means an unclean exit.
    """

    def __init__(self, directory: str, role: str = "worker",
                 interval: float = DEFAULT_INTERVAL):
        os.makedirs(directory, exist_ok=True)
        self.pid = os.getpid()
        self.role = role
        self.interval = float(interval)
        self.path = os.path.join(directory, f"hb-{self.pid}.json")
        self.points = 0
        self.current = None
        self.last_seq = None
        self._beats = 0
        self._started_ts = time.time()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = None

    def start(self) -> "Heartbeat":
        self._remove_orphan_temps()
        self.beat()
        thread = threading.Thread(target=self._run, daemon=True,
                                  name=f"heartbeat-{self.pid}")
        self._thread = thread
        thread.start()
        return self

    def _remove_orphan_temps(self) -> None:
        """Delete the temp files of dead writers in this directory.

        A writer killed between writing its temp file and the
        ``os.replace`` leaves ``hb-<pid>.json.tmp`` behind for good;
        readers never look at it, so it is only debris.  A live pid's
        temp file may be mid-beat and stays.
        """
        directory = os.path.dirname(self.path)
        for name in os.listdir(directory):
            if not (name.startswith("hb-") and name.endswith(".json.tmp")):
                continue
            pid = name[len("hb-"):-len(".json.tmp")]
            if pid.isdigit() and not pid_alive(int(pid)):
                try:
                    os.remove(os.path.join(directory, name))
                except OSError:
                    pass  # another starting writer removed it first

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()

    def beat(self) -> None:
        """Atomically rewrite the heartbeat file with current state."""
        with self._lock:
            self._beats += 1
            record = {
                "version": HEARTBEAT_VERSION,
                "pid": self.pid,
                "role": self.role,
                "interval": self.interval,
                "started_ts": round(self._started_ts, 6),
                "beat_ts": round(time.time(), 6),
                "beats": self._beats,
                "points": self.points,
                "current": self.current,
                "last_seq": self.last_seq,
            }
            tmp = self.path + ".tmp"
            try:
                with open(tmp, "w", encoding="utf-8") as stream:
                    json.dump(record, stream, sort_keys=True)
                os.replace(tmp, self.path)
            except OSError:
                pass  # liveness reporting must never kill the work

    def point_started(self, spec_hash: str, last_seq=None) -> None:
        self.current = spec_hash
        if last_seq is not None:
            self.last_seq = last_seq
        self.beat()

    def point_finished(self, last_seq=None) -> None:
        self.points += 1
        self.current = None
        if last_seq is not None:
            self.last_seq = last_seq
        self.beat()

    def update(self, points=None, last_seq=None) -> None:
        """Coordinator-style bulk progress update, then beat."""
        if points is not None:
            self.points = points
        if last_seq is not None:
            self.last_seq = last_seq
        self.beat()

    def stop(self, remove: bool = True) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(1.0, 2 * self.interval))
            self._thread = None
        if remove:
            for path in (self.path, self.path + ".tmp"):
                try:
                    os.remove(path)
                except OSError:
                    pass
        else:
            self.beat()


def read_heartbeats(directory: str) -> list:
    """All parseable heartbeat records under ``directory``, by pid."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    records = []
    for name in names:
        if not name.startswith("hb-") or not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, name),
                      encoding="utf-8") as stream:
                record = json.load(stream)
        except (OSError, ValueError):
            continue  # torn or vanished mid-read: the next poll catches up
        if isinstance(record, dict) and "pid" in record:
            records.append(record)
    records.sort(key=lambda record: record.get("pid", 0))
    return records


def liveness(record: dict, now: float = None,
             stale_after: float = None) -> str:
    """Classify one heartbeat record: ``ok`` / ``stale`` / ``dead``."""
    if now is None:
        now = time.time()
    if stale_after is None:
        interval = record.get("interval") or DEFAULT_INTERVAL
        stale_after = max(DEFAULT_STALE_AFTER, 4 * float(interval))
    pid = record.get("pid", -1)
    if not pid_alive(pid):
        return "dead"
    age = now - float(record.get("beat_ts", 0.0))
    return "stale" if age > stale_after else "ok"
