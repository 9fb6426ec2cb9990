"""`repro status`: reconstruction from event log + journal."""

import json
import os
import time

import pytest

from repro.engine.errors import ConfigError
from repro.obs import EventLog, collect_status, follow, render_status
from repro.obs.eventlog import EVENTS_VERSION, events_path
from repro.obs.session import fold_records
from repro.obs.status import aggregate_events, resolve_campaign_dir

#: A pid above Linux's largest ``pid_max``: never alive.
GONE = 2 ** 22 + 54321


def _emit_campaign(log, budget=4, finish="complete"):
    log.emit("campaign_started", workload="mixed", sampler="grid",
             budget=budget, seed=7, jobs=1, batch=8, resumed=0)
    log.emit("batch_scheduled", batch=0, rung=0, points=budget,
             fresh=budget)
    for index in range(budget):
        spec = f"spec{index:04d}babe"
        log.emit("point_started", spec_hash=spec)
        log.emit("point_finished", spec_hash=spec, cache_hit=False,
                 paid=True, wall_ms=10.0 + index)
    log.emit("journal_written", evaluations=budget, status=finish)
    if finish is not None:
        log.emit("campaign_finished", status=finish, points=budget,
                 paid=budget)


def _beat(log, points=0, role="coordinator"):
    log.emit("heartbeat", role=role, points=points, current=None)


def _dead_writer(directory, *records):
    """Append ``(event, fields)`` records as written by a pid that is
    gone (a SIGKILLed session)."""
    with open(events_path(str(directory)), "a") as out:
        for seq, (event, fields) in enumerate(records):
            record = {"v": EVENTS_VERSION, "seq": seq, "pid": GONE,
                      "ts": time.time(), "event": event}
            record.update(fields)
            out.write(json.dumps(record) + "\n")


def _campaign_dir(tmp_path, budget=4, finish="complete"):
    directory = tmp_path / "camp"
    directory.mkdir()
    with EventLog(events_path(str(directory))) as log:
        _emit_campaign(log, budget=budget, finish=finish)
    return directory


def test_resolve_campaign_dir_accepts_dir_journal_and_events(tmp_path):
    directory = _campaign_dir(tmp_path)
    (directory / "journal.json").write_text("{}")
    expected = str(directory)
    assert resolve_campaign_dir(expected) == expected
    assert os.path.abspath(resolve_campaign_dir(
        str(directory / "journal.json"))) == os.path.abspath(expected)
    assert os.path.abspath(resolve_campaign_dir(
        str(directory / "events.jsonl"))) == os.path.abspath(expected)
    with pytest.raises(ConfigError, match="cannot read"):
        resolve_campaign_dir(str(tmp_path / "nope"))


def test_aggregate_counts_one_session(tmp_path):
    directory = _campaign_dir(tmp_path, budget=3)
    from repro.obs import read_events
    records, _ = read_events(events_path(str(directory)))
    agg = aggregate_events(records)
    assert agg["sessions"] == 1
    assert agg["campaign"]["budget"] == 3
    assert agg["finished"]["status"] == "complete"
    assert agg["batches"] == 1
    assert agg["points"] == 3
    assert agg["paid"] == 3
    assert agg["free"] == 0
    assert agg["inflight"] == 0
    assert agg["wall"]["count"] == 3
    assert agg["wall"]["p50_s"] > 0


def test_aggregate_uses_last_session_only(tmp_path):
    directory = tmp_path / "camp"
    directory.mkdir()
    with EventLog(events_path(str(directory))) as log:
        _emit_campaign(log, budget=2, finish=None)  # killed session
    # resume: a fresh writer session appends to the same file
    with EventLog(events_path(str(directory))) as log:
        _emit_campaign(log, budget=5, finish="complete")
    from repro.obs import read_events
    records, _ = read_events(events_path(str(directory)))
    agg = aggregate_events(records)
    assert agg["sessions"] == 2
    assert agg["points"] == 5  # not 7: replay re-emits within a session
    assert agg["events_total"] > agg["events"]


def test_aggregate_ignores_heartbeats(tmp_path):
    # Heartbeats prove liveness; they are not progress.
    from repro.obs import read_events
    aggregates = []
    for beats in (False, True):
        path = events_path(str(tmp_path / f"camp{beats}"))
        with EventLog(path) as log:
            if beats:
                _beat(log)
            _emit_campaign(log, budget=3, finish=None)
            log.emit("point_started", spec_hash="inflight")
            if beats:
                _beat(log, points=3)
        agg = aggregate_events(read_events(path)[0])
        del agg["first_ts"], agg["last_ts"]
        aggregates.append(agg)
    plain, beating = aggregates
    assert beating == plain
    assert (beating["points"], beating["inflight"]) == (3, 1)


def test_fold_records_ignores_heartbeats(tmp_path):
    directory = tmp_path / "camp"
    directory.mkdir()
    with EventLog(events_path(str(directory))) as log:
        _beat(log)
        log.emit("counter", name="cache.hit", amount=2)
        _beat(log, points=1)
    from repro.obs import read_events
    records = read_events(events_path(str(directory)))[0]
    spans, metrics = fold_records(records)
    assert spans == []
    assert metrics.snapshot()["counters"] == {"cache.hit": 2}


def test_aggregate_tracks_inflight_points(tmp_path):
    directory = tmp_path / "camp"
    directory.mkdir()
    with EventLog(events_path(str(directory))) as log:
        log.emit("campaign_started", workload="mixed", sampler="grid",
                 budget=4)
        log.emit("point_started", spec_hash="aaaa")
        log.emit("point_started", spec_hash="bbbb")
        log.emit("point_finished", spec_hash="aaaa", cache_hit=False,
                 paid=True, wall_ms=5.0)
    from repro.obs import read_events
    records, _ = read_events(events_path(str(directory)))
    assert aggregate_events(records)["inflight"] == 1


def test_collect_status_finished_campaign(tmp_path):
    directory = _campaign_dir(tmp_path, budget=4)
    status = collect_status(str(directory))
    assert status["state"] == "finished (complete)"
    assert status["fraction"] == 1.0
    assert status["points"] == 4
    assert status["paid"] == 4
    assert status["free"] == 0
    assert status["eta_s"] is None
    assert status["workers"] == []
    assert status["warnings"] == []


def test_collect_status_killed_campaign_reports_partial(tmp_path):
    # No campaign_finished, no heartbeats, no journal: partial
    # progress must still be reported from the event log alone.
    directory = tmp_path / "camp"
    directory.mkdir()
    with EventLog(events_path(str(directory))) as log:
        log.emit("campaign_started", workload="mixed", sampler="grid",
                 budget=10)
        log.emit("batch_scheduled", batch=0, points=4, fresh=4)
        for index in range(3):
            spec = f"spec{index}"
            log.emit("point_started", spec_hash=spec)
            log.emit("point_finished", spec_hash=spec, cache_hit=False,
                     paid=True, wall_ms=20.0)
    status = collect_status(str(directory))
    assert status["state"] == "interrupted (event log only)"
    assert status["points"] == 3
    assert status["budget"] == 10
    assert status["fraction"] == pytest.approx(0.3)


def test_collect_status_dead_coordinator_heartbeat(tmp_path):
    directory = tmp_path / "camp"
    directory.mkdir()
    _dead_writer(directory,
                 ("heartbeat", {"role": "coordinator", "points": 0,
                                "current": None}),
                 ("campaign_started", {"workload": "mixed",
                                       "sampler": "grid", "budget": 2}),
                 ("heartbeat", {"role": "coordinator", "points": 2,
                                "current": None}))
    status = collect_status(str(directory))
    assert status["state"] == (f"dead (coordinator pid {GONE} is gone "
                               f"— killed?)")
    [entry] = status["workers"]
    assert (entry["pid"], entry["liveness"], entry["points"],
            entry["last_seq"]) == (GONE, "dead", 2, 2)


def test_collect_status_live_coordinator_is_running(tmp_path):
    directory = tmp_path / "camp"
    directory.mkdir()
    with EventLog(events_path(str(directory))) as log:
        _beat(log)
        _emit_campaign(log, budget=2, finish=None)
        _beat(log, points=2)
    status = collect_status(str(directory))
    assert status["state"] == "running"
    assert status["eta_s"] is None or status["eta_s"] >= 0
    [entry] = status["workers"]
    assert (entry["pid"], entry["role"], entry["liveness"],
            entry["points"]) == (os.getpid(), "coordinator", "ok", 2)


def test_collect_status_resumed_live_coordinator_beats_killed_one(
        tmp_path):
    # A --resume appends a second session: the killed coordinator's
    # beats stay in the log, but the state is the resumed one's.
    directory = tmp_path / "camp"
    directory.mkdir()
    _dead_writer(directory,
                 ("heartbeat", {"role": "coordinator", "points": 0,
                                "current": None}),
                 ("campaign_started", {"workload": "mixed",
                                       "sampler": "grid", "budget": 4}))
    with EventLog(events_path(str(directory))) as log:
        _beat(log)
        _emit_campaign(log, budget=4, finish=None)
    status = collect_status(str(directory))
    assert status["state"] == "running"
    assert [(entry["pid"], entry["liveness"])
            for entry in status["workers"]] == [(os.getpid(), "ok"),
                                                (GONE, "dead")]
    assert "DEAD" in render_status(status)


def test_collect_status_silent_coordinator_is_stalled(tmp_path):
    directory = tmp_path / "camp"
    directory.mkdir()
    with EventLog(events_path(str(directory))) as log:
        _beat(log)
        _emit_campaign(log, budget=2, finish=None)
    status = collect_status(str(directory), now=time.time() + 60.0)
    assert status["state"].startswith(
        f"stalled (coordinator pid {os.getpid()} silent for")
    assert collect_status(str(directory), now=time.time() + 60.0,
                          stale_after=120.0)["state"] == "running"


def test_collect_status_skips_records_without_a_writer(tmp_path):
    # A parseable line with a broken envelope names no writer to judge.
    directory = _campaign_dir(tmp_path, budget=2, finish=None)
    with open(events_path(str(directory)), "a") as out:
        out.write(json.dumps({"event": "heartbeat", "pid": "x",
                              "ts": "later", "role": "worker"}) + "\n")
        out.write(json.dumps({"event": "heartbeat", "pid": 7}) + "\n")
    status = collect_status(str(directory))
    assert status["workers"] == []
    assert status["points"] == 2


def test_collect_status_finished_event_beats_stale_heartbeat(tmp_path):
    # campaign_finished is the strongest evidence: even a coordinator
    # that never wrote its farewell must not flip the verdict.
    directory = tmp_path / "camp"
    directory.mkdir()
    with EventLog(events_path(str(directory))) as log:
        _beat(log)
        _emit_campaign(log, budget=2, finish="complete")
    status = collect_status(str(directory), now=time.time() + 60.0)
    assert status["state"] == "finished (complete)"
    assert status["workers"][0]["liveness"] == "stale"


def test_collect_status_journal_only_directory(tmp_path):
    directory = tmp_path / "camp"
    directory.mkdir()
    journal = {"status": "complete",
               "campaign": {"budget": 2},
               "evaluations": [
                   {"spec_hash": "a", "cached": False},
                   {"spec_hash": "b", "cached": True, "cache_hit": True},
               ]}
    (directory / "journal.json").write_text(json.dumps(journal))
    status = collect_status(str(directory))
    assert status["state"] == "finished (complete)"
    assert status["points"] == 2
    assert status["paid"] == 1
    assert status["cache_hits"] == 1


def test_collect_status_empty_directory(tmp_path):
    status = collect_status(str(tmp_path))
    assert status["state"] == "unknown (no artifacts)"
    assert status["points"] == 0


def test_collect_status_warns_when_journal_trails_events(tmp_path):
    directory = _campaign_dir(tmp_path, budget=4, finish=None)
    journal = {"status": "partial", "campaign": {"budget": 4},
               "evaluations": [{"spec_hash": "a", "cached": False}]}
    (directory / "journal.json").write_text(json.dumps(journal))
    status = collect_status(str(directory))
    assert any("journal trails event log" in warning
               for warning in status["warnings"])
    # Events are fresher: figures come from them, not the journal.
    assert status["points"] == 4


def test_collect_status_is_json_serializable(tmp_path):
    directory = _campaign_dir(tmp_path)
    json.dumps(collect_status(str(directory)))


def test_render_status_shows_bar_figures_and_workers(tmp_path):
    directory = _campaign_dir(tmp_path, budget=4)
    with EventLog(events_path(str(directory))) as log:
        _beat(log, points=4)
    text = render_status(collect_status(str(directory)), width=20)
    assert "state:    finished (complete)" in text
    assert "[####################] 100.0%" in text
    assert "(4/4 paid, 0 free)" in text
    assert "points finished" in text
    assert "coordinator" in text
    assert str(os.getpid()) in text


def test_render_status_unknown_fraction_uses_placeholder(tmp_path):
    text = render_status(collect_status(str(tmp_path)), width=8)
    assert "[????????]" in text


def test_follow_stops_on_finished_and_returns_status(tmp_path):
    directory = _campaign_dir(tmp_path, budget=2)
    frames = []
    status = follow(str(directory), interval=0.0,
                    echo=frames.append, sleep=lambda _s: None)
    assert status["state"] == "finished (complete)"
    assert any("100.0%" in frame for frame in frames)


def test_follow_timeout_bounds_a_live_campaign(tmp_path):
    directory = tmp_path / "camp"
    directory.mkdir()
    with EventLog(events_path(str(directory))) as log:
        _beat(log)
        _emit_campaign(log, budget=4, finish=None)
    clock_value = [0.0]

    def clock():
        clock_value[0] += 1.0
        return clock_value[0]

    status = follow(str(directory), interval=0.5, timeout=2.0,
                    echo=lambda _t: None, sleep=lambda _s: None,
                    clock=clock)
    assert status["state"] == "running"
    assert any("timeout" in warning for warning in status["warnings"])
