"""CLI surface: --obs-trace / --profile flags and `repro obs summary`."""

import json
import pstats

from repro.cli import main
from repro.obs import validate_trace

SMOKE_SWEEP = ["sweep", "histogram", "--axis", "bins=1,4",
               "--set", "updates_per_core=2", "--cores", "8"]

SMOKE_EXPLORE = ["explore", "histogram", "--smoke",
                 "--axis", "bins=1,4", "--axis", "variant=lrsc,colibri",
                 "--objective", "min:cycles", "--budget", "4"]


def run_cli(capsys, argv, expect_code=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect_code, captured.out + captured.err
    return captured.out + captured.err


def test_sweep_obs_trace_is_schema_valid(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    out = run_cli(capsys, SMOKE_SWEEP + ["--obs-trace", str(trace)])
    assert f"obs trace: {trace}" in out
    with open(trace) as stream:
        document = json.load(stream)
    validate_trace(document)
    cats = {event["cat"] for event in document["traceEvents"]
            if event["ph"] == "X"}
    assert cats == {"point", "phase"}
    assert document["otherData"]["timers"]["span.point"]["count"] == 2


def test_explore_obs_trace_covers_campaign_hierarchy(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    run_cli(capsys, SMOKE_EXPLORE + ["--out", str(tmp_path / "camp"),
                                     "--obs-trace", str(trace)])
    with open(trace) as stream:
        document = json.load(stream)
    validate_trace(document)
    cats = {event["cat"] for event in document["traceEvents"]
            if event["ph"] == "X"}
    assert {"campaign", "schedule", "point", "phase"} <= cats
    counters = document["otherData"]["counters"]
    assert counters["campaign.points"] == 4
    assert counters["campaign.paid"] == 4


def test_obs_summary_on_trace_and_journal(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    run_cli(capsys, SMOKE_EXPLORE + ["--out", str(tmp_path / "camp"),
                                     "--obs-trace", str(trace)])
    trace_out = run_cli(capsys, ["obs", "summary", str(trace)])
    assert "obs summary (trace)" in trace_out
    for field in ("wall clock (s)", "points run", "cache hit rate",
                  "points/sec"):
        assert field in trace_out, field

    journal = str(tmp_path / "camp" / "journal.json")
    journal_out = run_cli(capsys, ["obs", "summary", journal])
    assert "obs summary (journal)" in journal_out
    assert "paid (fresh sims)" in journal_out
    assert "simulated wall (s)" in journal_out


def test_profile_dumps_hottest_phase_pstats(capsys, tmp_path):
    profile = tmp_path / "profile.pstats"
    out = run_cli(capsys, SMOKE_SWEEP + ["--profile", str(profile)])
    assert "profile (" in out
    assert str(profile) in out
    stats = pstats.Stats(str(profile))
    assert stats.total_calls > 0


def test_profile_with_jobs_exits_2(capsys, tmp_path):
    out = run_cli(capsys,
                  SMOKE_SWEEP + ["--profile", str(tmp_path / "p"),
                                 "--jobs", "2"],
                  expect_code=2)
    assert "--profile needs --jobs 1" in out


def test_obs_trace_with_jobs_merges_workers(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    run_cli(capsys, SMOKE_SWEEP + ["--jobs", "2",
                                   "--obs-trace", str(trace)])
    with open(trace) as stream:
        document = json.load(stream)
    validate_trace(document)
    lanes = {event["tid"] for event in document["traceEvents"]
             if event["ph"] == "X"}
    assert 0 not in lanes          # every point ran on a worker lane
    assert document["otherData"]["timers"]["span.point"]["count"] == 2


def test_obs_summary_rejects_non_artifacts(capsys, tmp_path):
    out = run_cli(capsys, ["obs", "summary", str(tmp_path / "nope.json")],
                  expect_code=2)
    assert "cannot read" in out

    other = tmp_path / "other.json"
    other.write_text(json.dumps({"something": "else"}))
    out = run_cli(capsys, ["obs", "summary", str(other)], expect_code=2)
    assert "not an --obs-trace file" in out

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    out = run_cli(capsys, ["obs", "summary", str(broken)], expect_code=2)
    assert "not valid JSON" in out


def test_cache_stats_reports_lifetime_rates(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    argv = SMOKE_SWEEP + ["--cache-dir", cache_dir]
    run_cli(capsys, argv)                   # cold: 2 misses, 2 stores
    run_cli(capsys, argv)                   # warm: 2 hits
    out = run_cli(capsys, ["cache", "stats", "--cache-dir", cache_dir])
    assert "lifetime hits" in out
    assert "lifetime hit rate" in out
    assert "50.0%" in out                   # 2 hits / 4 lookups


def test_obs_summary_tolerates_truncated_journal(capsys, tmp_path):
    camp = tmp_path / "camp"
    run_cli(capsys, SMOKE_EXPLORE + ["--out", str(camp)])
    journal = camp / "journal.json"
    text = journal.read_text()
    journal.write_text(text[:len(text) // 2])  # crash mid-write
    out = run_cli(capsys, ["obs", "summary", str(journal)])
    assert "obs summary (journal)" in out
    assert "warning: artifact truncated" in out


def test_obs_summary_reads_event_logs(capsys, tmp_path):
    camp = tmp_path / "camp"
    run_cli(capsys, SMOKE_EXPLORE + ["--out", str(camp), "--events"])
    out = run_cli(capsys, ["obs", "summary",
                           str(camp / "events.jsonl")])
    assert "obs summary (events)" in out
    assert "points finished" in out
    assert "writer sessions" in out


def test_explore_events_needs_a_directory(capsys):
    out = run_cli(capsys, SMOKE_EXPLORE + ["--events"], expect_code=2)
    assert "--events needs --out DIR" in out


def test_status_on_finished_campaign(capsys, tmp_path):
    camp = tmp_path / "camp"
    run_cli(capsys, SMOKE_EXPLORE + ["--out", str(camp), "--events"])
    out = run_cli(capsys, ["status", str(camp)])
    assert "state:    finished (complete)" in out
    assert "100.0%" in out
    assert "(4/4 paid, 0 free)" in out

    snapshot = json.loads(run_cli(capsys,
                                  ["status", str(camp), "--json"]))
    assert snapshot["state"] == "finished (complete)"
    assert snapshot["points"] == 4
    assert snapshot["events"]["batches"] >= 1
    # Event-log totals reconcile against the journal on disk.
    assert snapshot["journal"]["evaluations"] == snapshot["points"]
    assert snapshot["journal"]["paid"] == snapshot["paid"]

    follow_out = run_cli(capsys, ["status", str(camp), "--follow",
                                  "--timeout", "5"])
    assert "follow: stopped (finished (complete))" in follow_out


def test_status_json_follow_conflict(capsys, tmp_path):
    out = run_cli(capsys, ["status", str(tmp_path), "--json",
                           "--follow"], expect_code=2)
    assert "drop --follow" in out


def test_status_missing_path_exits_2(capsys, tmp_path):
    out = run_cli(capsys, ["status", str(tmp_path / "ghost")],
                  expect_code=2)
    assert "cannot read" in out


def test_cache_stats_json(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    argv = SMOKE_SWEEP + ["--cache-dir", cache_dir]
    run_cli(capsys, argv)
    run_cli(capsys, argv)
    stats = json.loads(run_cli(capsys, ["cache", "stats", "--json",
                                        "--cache-dir", cache_dir]))
    assert stats["entries"] == 2
    assert stats["lifetime"]["hits"] == 2
    assert stats["lifetime_hit_rate"] == 0.5
