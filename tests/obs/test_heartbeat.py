"""Heartbeat files: atomic writes, liveness classification, cleanup."""

import json
import os
import time

from repro.obs import Heartbeat, liveness, read_heartbeats
from repro.obs.heartbeat import (DEFAULT_STALE_AFTER, heartbeat_dir,
                                 pid_alive)


def test_heartbeat_dir_joins_convention(tmp_path):
    assert heartbeat_dir(str(tmp_path)) == str(tmp_path / "heartbeats")


def test_beat_writes_self_describing_record(tmp_path):
    monitor = Heartbeat(str(tmp_path), role="coordinator", interval=9.0)
    monitor.beat()
    with open(monitor.path, encoding="utf-8") as stream:
        record = json.load(stream)
    assert record["pid"] == os.getpid()
    assert record["role"] == "coordinator"
    assert record["interval"] == 9.0
    assert record["points"] == 0
    assert record["current"] is None
    assert record["beat_ts"] >= record["started_ts"]
    monitor.stop()


def test_point_boundaries_advance_the_record(tmp_path):
    monitor = Heartbeat(str(tmp_path), interval=9.0)
    monitor.point_started("abc123def456", last_seq=4)
    record = read_heartbeats(str(tmp_path))[0]
    assert record["current"] == "abc123def456"
    assert record["last_seq"] == 4
    monitor.point_finished(last_seq=5)
    record = read_heartbeats(str(tmp_path))[0]
    assert record["current"] is None
    assert record["points"] == 1
    assert record["last_seq"] == 5
    monitor.stop()


def test_update_sets_bulk_progress(tmp_path):
    monitor = Heartbeat(str(tmp_path), role="coordinator", interval=9.0)
    monitor.update(points=17, last_seq=40)
    record = read_heartbeats(str(tmp_path))[0]
    assert record["points"] == 17
    assert record["last_seq"] == 40
    monitor.stop()


def test_clean_stop_removes_the_file(tmp_path):
    monitor = Heartbeat(str(tmp_path), interval=9.0).start()
    assert os.path.exists(monitor.path)
    monitor.stop()
    assert not os.path.exists(monitor.path)


def test_stop_without_remove_leaves_a_final_beat(tmp_path):
    monitor = Heartbeat(str(tmp_path), interval=9.0).start()
    monitor.points = 3
    monitor.stop(remove=False)
    record = read_heartbeats(str(tmp_path))[0]
    assert record["points"] == 3


def test_timer_thread_beats_on_its_own(tmp_path):
    monitor = Heartbeat(str(tmp_path), interval=0.02).start()
    try:
        deadline = time.time() + 5.0
        while time.time() < deadline:
            record = read_heartbeats(str(tmp_path))[0]
            if record["beats"] >= 3:
                break
            time.sleep(0.01)
        assert record["beats"] >= 3
    finally:
        monitor.stop()


def test_read_heartbeats_skips_torn_and_foreign_files(tmp_path):
    monitor = Heartbeat(str(tmp_path), interval=9.0)
    monitor.beat()
    (tmp_path / "hb-99999999.json").write_text('{"pid": 99999')  # torn
    (tmp_path / "notes.txt").write_text("unrelated")
    records = read_heartbeats(str(tmp_path))
    assert [record["pid"] for record in records] == [os.getpid()]
    monitor.stop()


def test_start_removes_temp_files_of_dead_writers(tmp_path):
    # A writer SIGKILLed between its temp write and the replace leaves
    # its temp file behind; a live writer's temp file may be mid-beat.
    dead = tmp_path / f"hb-{2 ** 22 + 12345}.json.tmp"
    live = tmp_path / f"hb-{os.getppid()}.json.tmp"
    orphan_record = tmp_path / f"hb-{2 ** 22 + 12345}.json"
    for path in (dead, live, orphan_record):
        path.write_text("{}")
    monitor = Heartbeat(str(tmp_path), interval=9.0).start()
    monitor.stop()
    assert not dead.exists()
    assert live.exists()
    assert orphan_record.exists()


def test_read_heartbeats_missing_directory_is_empty(tmp_path):
    assert read_heartbeats(str(tmp_path / "absent")) == []


def test_pid_alive_self_and_bogus():
    assert pid_alive(os.getpid())
    assert not pid_alive(-1)


def test_liveness_ok_stale_dead():
    now = time.time()
    fresh = {"pid": os.getpid(), "beat_ts": now, "interval": 0.5}
    assert liveness(fresh, now=now) == "ok"
    old = {"pid": os.getpid(), "beat_ts": now - DEFAULT_STALE_AFTER - 1,
           "interval": 0.5}
    assert liveness(old, now=now) == "stale"
    # A beat however fresh means nothing if the pid is gone.
    gone = {"pid": 2 ** 22 + 12345, "beat_ts": now, "interval": 0.5}
    assert liveness(gone, now=now) == "dead"


def test_liveness_threshold_is_pluggable():
    now = time.time()
    record = {"pid": os.getpid(), "beat_ts": now - 2.0, "interval": 0.5}
    assert liveness(record, now=now) == "ok"
    assert liveness(record, now=now, stale_after=1.0) == "stale"


def test_liveness_threshold_scales_with_slow_intervals():
    # A worker beating every 30s is not stale at 60s: the default
    # threshold is max(DEFAULT_STALE_AFTER, 4 * interval).
    now = time.time()
    record = {"pid": os.getpid(), "beat_ts": now - 60.0, "interval": 30.0}
    assert liveness(record, now=now) == "ok"
    record = {"pid": os.getpid(), "beat_ts": now - 130.0, "interval": 30.0}
    assert liveness(record, now=now) == "stale"
