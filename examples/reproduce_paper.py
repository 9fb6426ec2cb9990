#!/usr/bin/env python3
"""Regenerate every table and figure of the paper.

The experiments are the paper manifest's (``repro.eval.paper``).  The
default scale is CI-friendly (64 cores, Fig. 5 at 128); ``--full`` runs
the paper's 256-core MemPool instance, which does not finish yet: its
Fig. 4 "LRSC lock" point at 1 bin alone did not finish within 15
minutes on a 2-vCPU host (ROADMAP.md tracks this).  Use ``--only
fig3`` (etc.) to run a single experiment, ``--jobs N`` to shard sweep
points across workers (identical results for any N), and
``--cache-dir`` to only re-simulate configurations that changed.

Run:  python examples/reproduce_paper.py [--full] [--only EXP] [--jobs N]
"""

import argparse
import sys
import time

from repro.eval import ResultCache, jobs_argument, scaling_table
from repro.eval.paper import CI, EXPERIMENTS, FULL


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper scale: 256 cores, full sweeps")
    parser.add_argument("--only", default=None, choices=list(EXPERIMENTS),
                        help="run a single experiment")
    parser.add_argument("--jobs", type=jobs_argument, default=1,
                        help="parallel sweep workers (0 = all CPUs)")
    parser.add_argument("--cache-dir", default=None,
                        help="memoize finished points here")
    args = parser.parse_args(argv)

    scale = FULL if args.full else CI
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    chosen = [args.only] if args.only else list(EXPERIMENTS)

    for name in chosen:
        start = time.time()
        print(f"=== {name} " + "=" * (70 - len(name)))
        print(EXPERIMENTS[name](scale, args.jobs, cache).render())
        if name == "table1":
            print("\n" + scaling_table())
        print(f"[{name} took {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
