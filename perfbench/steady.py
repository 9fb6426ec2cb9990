#!/usr/bin/env python3
"""Steadiness check: is every end-to-end metric stable across seeds?

Runs ``perfbench/run.py`` ``--runs`` times per workload (one after the
other, at seeds 0, 1, 2, ...) with the ``run_seconds`` of
``BENCHMARK.json`` and prints, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread —
``(Q3 - Q1) / median`` — against the metric's bound.  A spread above
the bound means two sets of runs of the same code can disagree by more
than the benchmark tolerates; below a third of it is the target.

Run from the repository root::

    python3 perfbench/steady.py                       # all workloads
    python3 perfbench/steady.py --workloads paper256 --runs 5

Exits 1 when a run fails or reports ``correct: false``, or when any
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        config = json.load(stream)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in config["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict = {name: [] for name in bounds}
        for seed in range(args.runs):
            result = run_once(workload, seed, config["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false "
                      f"({result['failed']}/{result['attempted']} failed)")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={result['metrics'][name]['value']:.5g}"
                for name in bounds), flush=True)
        print(f"\n{workload}: {args.runs} runs of {config['run_seconds']} s")
        print(f"  {'metric':14s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = ("ok" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
            if spread > bound:
                ok = False
            print(f"  {name:14s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.3f}  {verdict}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
