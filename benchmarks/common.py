"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at a
CI-friendly scale, prints the same rows/series the paper reports (run
pytest with ``-s`` to see them), and records the headline numbers in
``benchmark.extra_info`` so they land in pytest-benchmark's JSON.

Simulations are deterministic, so a single round measures them exactly;
``run_experiment`` wraps ``benchmark.pedantic`` accordingly.  Scales
default to 32 cores — the paper's qualitative shape holds from 16 cores
up (asserted by the test-suite), while full-scale runs are available
through ``examples/reproduce_paper.py --full``.

Engine regression baseline
--------------------------
``bench_engine.py`` is the *host-performance* canary: it times the raw
event kernel (chained schedule/run) and one representative end-to-end
simulation.  Its medians are recorded in ``BENCH_engine.json`` at the
repo root — one labelled entry per significant kernel change, oldest
first (the PR-1 entries capture the seed kernel and the event-kernel
fast path, a ~2.5× kernel / ~1.4× end-to-end improvement).  When a PR
touches the engine hot path, regenerate the numbers with::

    pytest benchmarks/bench_engine.py --benchmark-json=out.json

and append a new entry (label, per-bench ``min``/``median``/``mean``)
to ``BENCH_engine.json`` instead of overwriting history, so the
trajectory across PRs stays comparable.  CI keeps every bench file
*executable* via ``pytest benchmarks -q --benchmark-disable``; timing
comparisons stay a manual, same-machine exercise because CI runners
are too noisy for them.
"""

from __future__ import annotations

import json
import os
import platform
import time

#: Default CI scale for simulation benchmarks.
BENCH_CORES = 32
#: Bin sweep used by the histogram benches at CI scale.
BENCH_BINS = [1, 4, 16, 64]
#: Updates per core for histogram benches.
BENCH_UPDATES = 6


def run_experiment(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` once (deterministic sim) and return its result."""
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                rounds=1, iterations=1)
    return result


def report(benchmark, rendered: str, **extra) -> None:
    """Print the paper-style table and stash headline numbers."""
    print("\n" + rendered)
    for key, value in extra.items():
        benchmark.extra_info[key] = value


def _paired_best_seconds(fn_a, fn_b, rounds: int = 5) -> tuple:
    """Best-of-N wall time for two functions, measured *alternating*.

    Container/CI machines see multi-second load bursts; measuring the
    two sides back-to-back lets one burst land entirely on one side and
    flip a ~1.2× ratio.  Alternating rounds spread bursts over both,
    and the per-side minimum (deterministic work) discards them.
    """
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


#: Same-machine noise allowance for baseline comparisons.
NOISE_FACTOR = 1.35

_BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_engine.json")


def machine_fingerprint() -> dict:
    """The machine identity stamped on baseline entries.

    Same shape as the file-level ``machine`` block of
    ``BENCH_engine.json``; per-entry stamps record *which* machine each
    appended baseline was measured on, so a trajectory mixing machines
    is visible instead of silently incomparable.
    """
    return {"python": platform.python_version(),
            "platform": platform.platform()}


def make_entry(label: str, benchmarks: dict) -> dict:
    """A ``BENCH_engine.json`` entry stamped with this machine.

    ``benchmarks`` maps bench names to their ``min``/``median``/``mean``
    (plus any extra headline numbers).  Append the result to the file's
    ``entries`` list — never overwrite history.
    """
    return {"label": label, "machine": machine_fingerprint(),
            "benchmarks": benchmarks}


def load_baselines() -> dict:
    """The parsed ``BENCH_engine.json`` document."""
    with open(_BENCH_JSON) as stream:
        return json.load(stream)


def baseline_stat(bench_name: str, label: str = "PR1-fast-path",
                  stat: str = "median") -> float:
    """A recorded statistic from ``BENCH_engine.json`` (protocol above).

    ``stat`` picks the recorded number: ``"median"`` for trajectory
    comparisons, ``"min"`` for noise-robust regression floors
    (deterministic work — the minimum is the repeatable estimate on
    machines with load bursts).
    """
    data = load_baselines()
    labels = [entry["label"] for entry in data["entries"]]
    for entry in data["entries"]:
        if entry["label"] == label:
            if bench_name not in entry["benchmarks"]:
                raise AssertionError(
                    f"entry {label!r} in BENCH_engine.json has no "
                    f"benchmark {bench_name!r}; it records: "
                    f"{sorted(entry['benchmarks'])}")
            return entry["benchmarks"][bench_name][stat]
    raise AssertionError(
        f"no {label!r} entry in BENCH_engine.json; available labels: "
        f"{labels}")


def baseline_median(bench_name: str, label: str = "PR1-fast-path") -> float:
    """A recorded median from ``BENCH_engine.json`` (see protocol above)."""
    return baseline_stat(bench_name, label, stat="median")
