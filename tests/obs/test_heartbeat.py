"""Heartbeat records: the timer, the farewell, liveness classification."""

import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.dse import Campaign, SearchSpace, parse_objectives
from repro.obs import OBS, EventLog, ObsSession, liveness, read_events
from repro.obs.eventlog import events_path, validate_events_file
from repro.obs.status import DEFAULT_STALE_AFTER, collect_status, pid_alive
from repro.scenarios import default_spec

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: A pid above Linux's largest ``pid_max``: never alive.
GONE = 2 ** 22 + 12345


@pytest.fixture
def slow_beats(monkeypatch):
    """Only the beat at open and the farewell: no timer beats."""
    monkeypatch.setattr("repro.obs.session.HEARTBEAT_INTERVAL", 60.0)


def _heartbeats(path):
    return [record for record in read_events(path)[0]
            if record["event"] == "heartbeat"]


def _wait_for(predicate, path, seconds=5.0):
    deadline = time.time() + seconds
    while time.time() < deadline:
        if predicate(_heartbeats(path)):
            return True
        time.sleep(0.01)
    return False


def test_beat_writes_self_describing_record(tmp_path, slow_beats):
    session = ObsSession()
    path = events_path(str(tmp_path))
    session.open_events(path, role="coordinator")
    try:
        record = _heartbeats(path)[0]
    finally:
        session.close_events()
    assert record["pid"] == os.getpid()
    assert record["seq"] == 0
    assert record["role"] == "coordinator"
    assert record["points"] == 0
    assert record["current"] is None
    assert "final" not in record


def test_point_boundaries_advance_the_record(tmp_path, monkeypatch):
    # Point boundaries are plain attribute writes; the next beat
    # carries them.
    monkeypatch.setattr("repro.obs.session.HEARTBEAT_INTERVAL", 0.01)
    session = ObsSession()
    path = events_path(str(tmp_path))
    session.open_events(path, role="worker")
    try:
        session.points = 3
        session.current_point = "abc123def456"
        assert _wait_for(lambda beats: beats[-1]["current"]
                         == "abc123def456", path)
        assert _heartbeats(path)[-1]["points"] == 3
    finally:
        session.close_events()


def test_update_sets_bulk_progress(tmp_path, slow_beats):
    # The coordinator's points are the campaign's evaluations so far,
    # whoever simulated them; the farewell carries the final count.
    path = events_path(str(tmp_path))
    campaign = Campaign(
        base=default_spec("histogram", num_cores=8).with_params(
            updates_per_core=2),
        space=SearchSpace.from_axes({"bins": [1, 2, 4]}),
        sampler="grid", objectives=parse_objectives(["min:cycles"]),
        budget=3)
    OBS.open_events(path)
    try:
        result = campaign.run()
    finally:
        OBS.close_events()
    farewell = _heartbeats(path)[-1]
    assert farewell["final"] is True
    assert farewell["points"] == len(result.evaluations) == 3


def test_clean_close_writes_a_farewell(tmp_path, slow_beats):
    session = ObsSession()
    path = events_path(str(tmp_path))
    session.open_events(path)
    session.points = 5
    session.close_events()
    assert session.heartbeat is None and session.events is None
    records, _ = validate_events_file(path)
    assert [record["event"] for record in records] == ["heartbeat"] * 2
    assert records[-1]["final"] is True
    assert records[-1]["points"] == 5
    # A clean exit is not a worker to watch, and no other file appears.
    assert collect_status(str(tmp_path))["workers"] == []
    assert os.listdir(tmp_path) == ["events.jsonl"]


def test_pid_alive_self_and_bogus():
    assert pid_alive(os.getpid())
    assert not pid_alive(-1)
    assert not pid_alive(GONE)


def test_liveness_ok_stale_dead():
    now = time.time()
    fresh = {"pid": os.getpid(), "ts": now}
    assert liveness(fresh, now=now) == "ok"
    old = {"pid": os.getpid(), "ts": now - DEFAULT_STALE_AFTER - 1}
    assert liveness(old, now=now) == "stale"
    # A record however fresh means nothing if the pid is gone.
    gone = {"pid": GONE, "ts": now}
    assert liveness(gone, now=now) == "dead"


def test_liveness_threshold_is_pluggable():
    now = time.time()
    record = {"pid": os.getpid(), "ts": now - 2.0}
    assert liveness(record, now=now) == "ok"
    assert liveness(record, now=now, stale_after=1.0) == "stale"


def test_timer_thread_beats_on_its_own(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.obs.session.HEARTBEAT_INTERVAL", 0.02)
    session = ObsSession()
    path = events_path(str(tmp_path))
    session.open_events(path)
    try:
        assert _wait_for(lambda beats: len(beats) >= 3, path)
    finally:
        session.close_events()
    validate_events_file(path)


def test_two_threads_emitting_keep_seq_contiguous(tmp_path):
    # More threads than cores, switching as often as the interpreter
    # allows: a seq taken out of order with its line breaks the log.
    path = events_path(str(tmp_path))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with EventLog(path) as log:
            def emit_many():
                for _ in range(500):
                    log.emit("cache_store")

            threads = [threading.Thread(target=emit_many)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    records, warnings = validate_events_file(path)
    assert warnings == []
    assert [record["seq"] for record in records] == list(range(2000))


def test_fork_waits_for_an_append_in_flight(tmp_path):
    # A thread is mid-append when the main thread forks: the fork waits
    # for it, so the child never inherits the append lock held.
    from repro.obs.eventlog import _EMIT_LOCK
    log = EventLog(events_path(str(tmp_path)))
    held, release = threading.Event(), threading.Event()

    def append_in_flight():
        with _EMIT_LOCK:
            held.set()
            release.wait(5.0)

    appender = threading.Thread(target=append_in_flight)
    appender.start()
    assert held.wait(5.0)
    threading.Timer(0.1, release.set).start()
    pid = os.fork()
    if pid == 0:                          # the child: must not hang
        log.emit("cache_store")
        os._exit(0)
    deadline = time.time() + 10.0
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.time() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on an inherited lock")
        time.sleep(0.01)
    appender.join(5.0)
    assert not appender.is_alive()
    log.close()
    records, _ = validate_events_file(log.path)
    assert [record["event"] for record in records] == ["cache_store"]


POOLED = """
import sys
import repro.obs.session
from repro.obs import OBS
from repro.scenarios import default_spec, run_scenarios
from repro.scenarios.registry import get_workload
from repro.scenarios.run import apply_settings

repro.obs.session.HEARTBEAT_INTERVAL = 0.01
base = apply_settings(default_spec("histogram"),
                      dict(get_workload("histogram").smoke))
specs = [base.with_params(bins=bins) for bins in (1, 2, 4, 8)]
OBS.open_events(sys.argv[1])
try:
    run_scenarios(specs, jobs=2)
finally:
    OBS.close_events()
"""


def test_pooled_control_plane_beats_and_says_farewell(tmp_path):
    # Workers fork while the coordinator's timer beats every 10 ms: no
    # child may inherit a held lock (a hang) or a half-written line.
    path = events_path(str(tmp_path))
    subprocess.run([sys.executable, "-c", POOLED, path],
                   env=dict(os.environ, PYTHONPATH=SRC),
                   check=True, timeout=120)
    records, warnings = validate_events_file(path)
    assert warnings == []
    writers = {record["pid"] for record in records}
    assert len(writers) == 3, writers    # the coordinator + 2 workers
    for pid in writers:
        beats = [record for record in records if record["pid"] == pid
                 and record["event"] == "heartbeat"]
        assert beats and not beats[0].get("final")
        assert beats[-1].get("final") is True
    assert collect_status(str(tmp_path))["workers"] == []

