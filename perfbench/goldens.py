#!/usr/bin/env python3
"""Record the correctness goldens the benchmark checks every unit against.

A golden is a unit's *signature* at a seed: for ``paper256`` the
simulated cycles, messages, SC failures, active and sleep cycles (and
the baseline makespan of the Fig. 5 pairs); for the campaigns the
SHA-256 of the journal without its ``wall_ms`` fields.  Both campaign
workloads share one table (the warm journal must equal the cold one).

Run from the repository root, only when the simulator's behaviour is
meant to change::

    python3 perfbench/goldens.py

It records seeds 0 to ``SEEDS - 1``.  Seed 0 is the benchmark's
default; the others serve as held-out seeds.
Runs at any other seed are still checked for determinism across
repeats and for each workload's own invariants.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run

#: Goldens are recorded for seeds ``0 .. SEEDS - 1``.
SEEDS = 16


def main() -> int:
    run.import_repro()
    from units import WORKLOADS
    table: dict = {}
    work_root = os.path.join(run.ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    for workload in ("paper256", "campaign_cold"):
        cls = WORKLOADS[workload]
        entries = table.setdefault(cls.golden_key, {})
        for seed in range(SEEDS):
            with tempfile.TemporaryDirectory(dir=work_root) as workdir:
                bench = cls(seed, workdir)
                signatures = {}
                for unit in bench.units:
                    output = bench.start(unit)()
                    signatures[unit], _messages = bench.check(unit, output)
            entries[str(seed)] = signatures
            print(f"{workload} seed {seed}: recorded", flush=True)
    os.rmdir(work_root)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "goldens.json")
    with open(path, "w") as stream:
        json.dump(table, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
