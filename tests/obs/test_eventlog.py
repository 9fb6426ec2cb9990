"""EventLog: crash-safe appends, per-writer seq contract, validation."""

import json
import os

import pytest

from repro.engine.errors import ConfigError
from repro.obs import EventLog, read_events, validate_events
from repro.obs.eventlog import (EVENTS_VERSION, events_path, parse_events,
                                validate_events_file)
from repro.obs.schema import SchemaError


def _log(tmp_path):
    return EventLog(str(tmp_path / "events.jsonl"))


def test_emit_writes_one_json_line_per_event(tmp_path):
    with _log(tmp_path) as log:
        log.emit("campaign_started", workload="mixed", sampler="grid",
                 budget=8)
        log.emit("point_started", spec_hash="abc123")
    lines = [line for line in
             (tmp_path / "events.jsonl").read_text().split("\n")
             if line.strip()]
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["v"] == EVENTS_VERSION
    assert first["event"] == "campaign_started"
    assert first["seq"] == 0
    assert first["pid"] == os.getpid()
    assert first["budget"] == 8
    assert json.loads(lines[1])["seq"] == 1


def test_emit_is_immediately_durable(tmp_path):
    # No close() before reading: a reader must see the record anyway,
    # because a SIGKILLed writer never gets to close.
    log = _log(tmp_path)
    log.emit("cache_store", key="deadbeef")
    records, warnings = read_events(log.path)
    assert [record["event"] for record in records] == ["cache_store"]
    assert warnings == []
    log.close()


def test_last_seq_tracks_emissions(tmp_path):
    with _log(tmp_path) as log:
        assert log.last_seq == -1
        log.emit("cache_store")
        log.emit("cache_evict", count=2)
        assert log.last_seq == 1


def test_events_path_joins_convention(tmp_path):
    assert events_path(str(tmp_path)) == str(tmp_path / "events.jsonl")


def test_round_trip_validates(tmp_path):
    with _log(tmp_path) as log:
        log.emit("campaign_started", workload="mixed", sampler="grid",
                 budget=4)
        log.emit("batch_scheduled", batch=0, points=4, fresh=4)
        log.emit("point_started", spec_hash="a" * 12)
        log.emit("point_finished", spec_hash="a" * 12, cache_hit=False,
                 paid=True, wall_ms=12.5)
        log.emit("campaign_finished", status="complete", points=4, paid=4)
    records, warnings = validate_events_file(
        str(tmp_path / "events.jsonl"))
    assert len(records) == 5
    assert warnings == []


def test_torn_tail_is_warning_not_error(tmp_path):
    with _log(tmp_path) as log:
        log.emit("cache_store")
        log.emit("cache_store")
    with open(log.path, "a", encoding="utf-8") as stream:
        stream.write('{"v": 1, "seq": 2, "pi')  # SIGKILL mid-write
    records, warnings = read_events(log.path)
    assert len(records) == 2
    assert warnings == ["line 3: truncated mid-write; ignored"]
    validate_events(records)


def test_mid_file_garbage_is_flagged_distinctly():
    text = ('{"v": 1, "seq": 0, "pid": 7, "ts": 1.0, "event": '
            '"cache_store"}\n'
            'not json at all\n'
            '{"v": 1, "seq": 1, "pid": 7, "ts": 2.0, "event": '
            '"cache_store"}\n')
    records, warnings = parse_events(text)
    assert len(records) == 2
    assert warnings == ["line 2: unparseable; skipped"]


def test_read_events_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        read_events(str(tmp_path / "nope.jsonl"))


def _record(seq, pid=7, event="cache_store", **fields):
    record = {"v": EVENTS_VERSION, "seq": seq, "pid": pid, "ts": 1.0,
              "event": event}
    record.update(fields)
    return record


def test_validate_rejects_unknown_event():
    with pytest.raises(SchemaError, match="unknown event"):
        validate_events([_record(0, event="campaign_imploded")])


def test_validate_rejects_missing_required_field():
    with pytest.raises(SchemaError, match="missing field 'spec_hash'"):
        validate_events([_record(0, event="point_started")])


def test_validate_rejects_seq_gap_within_pid():
    records = [_record(0), _record(2)]
    with pytest.raises(SchemaError, match="seq jumped 0 -> 2"):
        validate_events(records)


def test_validate_rejects_nonzero_first_seq():
    with pytest.raises(SchemaError, match="first record has seq 3"):
        validate_events([_record(3)])


def test_validate_allows_seq_restart_as_new_session():
    # A resumed campaign (or a fork-healed handle) starts a fresh
    # writer session at seq 0 in the same file.
    records = [_record(0), _record(1), _record(0), _record(1)]
    validate_events(records)


def test_validate_interleaved_pids_are_independent_lanes():
    records = [_record(0, pid=1), _record(0, pid=2), _record(1, pid=1),
               _record(1, pid=2)]
    validate_events(records)


def test_validate_bool_and_count_fields_are_per_event():
    # 'paid' is a bool flag on point_finished but an int count on
    # campaign_finished; both must validate.
    records = [
        _record(0, event="point_finished", spec_hash="a", cache_hit=True,
                paid=False, wall_ms=0),
        _record(1, event="campaign_finished", status="complete",
                points=5, paid=3),
    ]
    validate_events(records)
    bad = [_record(0, event="point_finished", spec_hash="a",
                   cache_hit=True, paid=1, wall_ms=0)]
    with pytest.raises(SchemaError, match="'paid' must be a bool"):
        validate_events(bad)
    bad = [_record(0, event="campaign_finished", status="x", points=5,
                   paid=True)]
    with pytest.raises(SchemaError, match="'paid' must be an int"):
        validate_events(bad)


@pytest.mark.parametrize("record", [
    _record(0, event="cache_evict", count=-3),
    _record(0, event="campaign_finished", status="complete", points=-1,
            paid=0),
])
def test_validate_rejects_negative_counts(record):
    with pytest.raises(SchemaError, match="must be an int >= 0"):
        validate_events([record])


def test_validate_rejects_negative_wall_ms():
    record = _record(0, event="point_finished", spec_hash="a",
                     cache_hit=False, paid=True, wall_ms=-1.0)
    with pytest.raises(SchemaError, match="wall_ms"):
        validate_events([record])


def test_fork_heal_resets_sequence(tmp_path, monkeypatch):
    log = _log(tmp_path)
    log.emit("cache_store")
    log.emit("cache_store")
    # Simulate the handle crossing a fork: the child sees a new pid and
    # must restart its own writer session rather than continue the
    # parent's sequence.
    child_pid = os.getpid() + 1
    monkeypatch.setattr("repro.obs.eventlog.os.getpid",
                        lambda: child_pid)
    record = log.emit("cache_store")
    assert record["seq"] == 0
    assert record["pid"] == child_pid
    monkeypatch.undo()
    log.close()
    records, _ = read_events(log.path)
    validate_events(records)
    assert [r["seq"] for r in records] == [0, 1, 0]
