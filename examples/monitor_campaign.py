#!/usr/bin/env python3
"""Live campaign monitoring walkthrough: watch a campaign from outside
its process, then reconcile the event log against the journal.

The campaign control plane (PR 9) writes two artifacts — an
append-only ``events.jsonl`` next to the journal (every state
transition, one JSON line each, plus every process's periodic
``heartbeat`` record) and the journal itself.  ``repro status``
reconstructs a campaign's state purely from those files, which is what
this example demonstrates: the campaign below runs in a *subprocess*
and the monitoring loop never touches its interpreter — exactly the
position you are in when you ssh into a box mid-campaign, or when the
campaign is already dead.

Run:  python examples/monitor_campaign.py

Equivalent CLI:
  repro explore histogram --axis bins=1,2,4,8,16 \\
      --axis variant=lrsc,colibri --budget 10 \\
      --set updates_per_core=128 --events --out camp &
  repro status camp                 # one snapshot, human-readable
  repro status camp --follow        # poll until finished or dead
  repro status camp --json          # the same snapshot for scripts
  python -m repro.obs camp/events.jsonl   # schema gate (CI runs this)
"""

import json
import os
import subprocess
import sys
import tempfile
import time

import repro
from repro.obs import collect_status, render_status, validate_events
from repro.obs.eventlog import events_path, read_events

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

EXPLORE = [
    "explore", "histogram",
    "--axis", "bins=1,2,4,8,16",
    "--axis", "variant=lrsc,colibri",
    "--budget", "10",
    "--set", "updates_per_core=128",
    "--seed", "0",
    "--events",
]


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        camp = os.path.join(workdir, "camp")

        # -- the campaign runs in its own process ---------------------
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro"] + EXPLORE + ["--out", camp],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.DEVNULL)

        # -- ...while this process watches the artifacts --------------
        snapshots = 0
        try:
            while proc.poll() is None:
                if os.path.exists(events_path(camp)):
                    status = collect_status(camp)
                    snapshots += 1
                    burn = (f"{status['paid']}/{status['budget']} paid"
                            if status["budget"] else "warming up")
                    print(f"poll {snapshots}: {status['state']:<12} "
                          f"{burn}, {status['free']} free, "
                          f"eta {status['eta_s'] or '?'} s")
                time.sleep(0.25)
        finally:
            proc.wait()
        assert proc.returncode == 0, "campaign failed"
        assert snapshots > 0, "campaign finished before the first poll"

        # -- final state: the full human-readable rendering -----------
        final = collect_status(camp)
        print()
        print(render_status(final))
        assert final["state"] == "finished (complete)", final["state"]
        assert final["fraction"] == 1.0
        # Every writer closed with its farewell: none is left to watch.
        assert final["workers"] == [], final["workers"]

        # -- reconcile: event log vs journal, record by record --------
        records, warnings = read_events(events_path(camp))
        validate_events(records)      # what `python -m repro.obs` runs
        assert not warnings, warnings
        finished = [record for record in records
                    if record["event"] == "point_finished"]
        paid = sum(1 for record in finished if record["paid"])
        with open(os.path.join(camp, "journal.json")) as stream:
            journal = json.load(stream)
        evaluations = journal["evaluations"]
        assert len(finished) == len(evaluations), (
            len(finished), len(evaluations))
        assert paid == sum(1 for record in evaluations
                           if not record["cached"])
        print()
        farewells = sum(1 for record in records if record.get("final"))
        print(f"event log reconciles with the journal: "
              f"{len(finished)} points finished ({paid} paid), "
              f"{len(records)} events, {farewells} clean farewell(s)")


if __name__ == "__main__":
    main()
