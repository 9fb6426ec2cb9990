#!/usr/bin/env python3
"""Time the ``paper256`` benchmark units in-process, for one or more
source trees, under any Python the package runs on.

Needs no pytest and skips perfbench's calibration: every round starts
one fresh process per tree, in turn (alternating which tree goes
first), and each process times every unit ``--repeats`` times with
``time.perf_counter`` after a ``gc.collect()``, checking each unit's
signature against ``perfbench/goldens.json``.  The report is each
unit's minimum over all rounds per tree, the sum of those minima, and
every tree's change against the first one.  Run from the repository
root, e.g. a parent commit unpacked with ``git archive`` against this
checkout::

    python3 scripts/time_units.py --rounds 5 /tmp/parent/src src
    python3.12 scripts/time_units.py src
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def time_units(seed: int, repeats: int) -> dict:
    """``{unit: [seconds]}`` of this process's ``repro``; raises when a
    unit's signature differs from its golden."""
    from units import Paper256
    with open(os.path.join(PERFBENCH, "goldens.json")) as stream:
        goldens = json.load(stream)["paper256"].get(str(seed), {})
    bench = Paper256(seed, workdir="")
    times = {}
    for unit in bench.units:
        times[unit] = []
        for _ in range(repeats):
            call = bench.start(unit)
            gc.collect()
            start = time.perf_counter()
            result = call()
            times[unit].append(time.perf_counter() - start)
            signature, _messages = bench.check(unit, result)
            if unit in goldens and signature != goldens[unit]:
                raise AssertionError(f"{unit}: signature {signature} "
                                     f"!= golden {goldens[unit]}")
    return times


def run_tree(src: str, seed: int, repeats: int) -> dict:
    """One fresh process timing the units of the tree at ``src``."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.abspath(src), PERFBENCH]))
    output = subprocess.run(
        [sys.executable, __file__, "--child", "--seed", str(seed),
         "--repeats", str(repeats)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(output.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", default=["src"],
                        help="source directories holding repro/")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(time_units(args.seed, args.repeats)))
        return 0
    best: list = [{} for _ in args.trees]
    for round_index in range(args.rounds):
        order = list(range(len(args.trees)))
        if round_index % 2:
            order.reverse()
        for index in order:
            for unit, values in run_tree(args.trees[index], args.seed,
                                         args.repeats).items():
                best[index][unit] = min(values + [best[index].get(
                    unit, float("inf"))])
    print(f"python {sys.version.split()[0]}, {args.rounds} rounds x "
          f"{args.repeats} repeats, seed {args.seed}; minima in ms")
    print("unit".ljust(28) + "".join(f"{index:>12}"
                                     for index in range(len(args.trees))))
    for unit in best[0]:
        cells = "".join(f"{tree[unit] * 1e3:12.1f}" for tree in best)
        print(unit.ljust(28) + cells)
    sums = [sum(tree.values()) for tree in best]
    print("sum".ljust(28) + "".join(f"{total * 1e3:12.1f}"
                                    for total in sums))
    for index, tree in enumerate(args.trees):
        change = (sums[index] / sums[0] - 1) * 100
        print(f"[{index}] {tree}: {change:+.1f}% against [0]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
