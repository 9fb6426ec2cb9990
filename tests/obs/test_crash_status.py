"""Crash realism: SIGKILL a live campaign, read the wreckage from disk.

The control plane's whole reason to exist is the campaign that died
without a goodbye.  This test runs a real ``repro explore --events``
campaign in a subprocess, SIGKILLs it mid-flight (after the first
journal checkpoint lands, during the second batch), and then asserts
the three recovery properties end to end:

* the event log is schema-valid up to its last complete line;
* ``repro status`` reconstructs partial progress and reports the
  coordinator as dead — from the on-disk artifacts alone;
* ``--resume`` converges to the exact journal an uninterrupted run
  produces (modulo per-point wall-clock timings).
"""

import copy
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.obs import collect_status, render_status
from repro.obs.eventlog import events_path, validate_events_file

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Sized so the first batch checkpoints quickly but the second batch
#: leaves a kill window orders of magnitude wider than poll latency.
EXPLORE_ARGS = [
    "explore", "histogram",
    "--axis", "bins=1,2,4,8,16",
    "--axis", "variant=lrsc,colibri",
    "--budget", "10",
    "--set", "updates_per_core=128",
    "--seed", "0",
    "--events",
]


def _run(args, directory_flag, directory, timeout=120):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro"] + args
        + [directory_flag, str(directory)],
        env=env, capture_output=True, text=True, timeout=timeout)


def _strip_wall(document):
    document = copy.deepcopy(document)
    for record in document.get("evaluations", []):
        record.pop("wall_ms", None)
    return document


@pytest.fixture(scope="module")
def killed_campaign(tmp_path_factory):
    directory = tmp_path_factory.mktemp("crash") / "camp"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + EXPLORE_ARGS
        + ["--out", str(directory)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    journal = directory / "journal.json"
    deadline = time.time() + 60
    try:
        while not journal.exists():
            if proc.poll() is not None:
                pytest.fail("campaign exited before first checkpoint:\n"
                            + proc.stderr.read())
            if time.time() > deadline:
                pytest.fail("no journal checkpoint within 60s")
            time.sleep(0.002)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()  # reap, so liveness sees the pid as gone
    return directory


def test_event_log_valid_to_last_complete_line(killed_campaign):
    records, warnings = validate_events_file(
        events_path(str(killed_campaign)))
    assert records, "a checkpointed campaign must have emitted events"
    assert [r for r in records if r["event"] == "campaign_started"]
    # A torn final line is legal; anything else unparseable is not.
    assert all("truncated mid-write" in warning for warning in warnings)
    # SIGKILL outruns the farewell: no campaign_finished record.
    assert not [r for r in records
                if r["event"] == "campaign_finished"]


def test_status_reports_partial_progress_and_dead_workers(
        killed_campaign):
    status = collect_status(str(killed_campaign))
    # Killed after the first checkpoint, before the campaign finished:
    # progress is real but incomplete.
    assert 1 <= status["points"] < 10
    assert status["budget"] == 10
    assert 0 < status["fraction"] < 1.0
    # The coordinator's heartbeats end without a farewell and its pid
    # is gone — the status must say so, not guess "running".
    dead = [entry for entry in status["workers"]
            if entry["liveness"] == "dead"]
    assert dead, f"expected a dead heartbeat, got {status['workers']}"
    assert status["state"].startswith("dead (coordinator pid")
    text = render_status(status)
    assert "DEAD" in text
    assert not os.path.exists(killed_campaign / "heartbeats")


def test_resume_converges_to_uninterrupted_journal(
        killed_campaign, tmp_path):
    resumed = _run(EXPLORE_ARGS, "--resume", killed_campaign)
    assert resumed.returncode == 0, resumed.stderr
    clean_dir = tmp_path / "uninterrupted"
    clean = _run(EXPLORE_ARGS, "--out", clean_dir)
    assert clean.returncode == 0, clean.stderr

    with open(killed_campaign / "journal.json") as stream:
        resumed_journal = json.load(stream)
    with open(clean_dir / "journal.json") as stream:
        clean_journal = json.load(stream)
    assert _strip_wall(resumed_journal) == _strip_wall(clean_journal)

    # The resumed session appended a second writer session to the same
    # event log, and the file as a whole still validates.
    records, _ = validate_events_file(events_path(str(killed_campaign)))
    sessions = [r for r in records if r["event"] == "campaign_started"]
    assert len(sessions) == 2
    assert sessions[1]["resumed"] > 0

    # Post-resume status: finished, 100%, reconciled with the journal.
    status = collect_status(str(killed_campaign))
    assert status["state"] == "finished (complete)"
    assert status["fraction"] == 1.0
    assert status["points"] == len(resumed_journal["evaluations"])
    assert status["paid"] <= 10
    # The resumed coordinator closed with its farewell and is not
    # listed; the killed one still reads dead.
    killed = records[0]["pid"]
    assert [(entry["pid"], entry["liveness"])
            for entry in status["workers"]] == [(killed, "dead")]
