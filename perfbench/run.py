#!/usr/bin/env python3
"""The repo benchmark: host time of the simulator and its harness.

Run from the repository root::

    python3 perfbench/run.py --workload paper256 --seed 0 --seconds 30
    python3 perfbench/run.py --workload campaign_cold --trace 1

Each run repeats its workload's fixed units round-robin for
``--seconds``; every sample is calibrated against a fixed kernel timed
around it (see ``calibrate.py``) and each unit reports the median of
its calibrated samples.  ``wall_s`` is the sum of those per-unit
medians — one pass — never a whole-run wall time.  ``--trace 1`` adds
a spans pass and a profiled pass and reports the per-layer ledger
instead (see ``ledger.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything above it is for
people: the machine stamp, per-unit times and ``fail_frac``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

from calibrate import NOMINAL_S, Clock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Each run repeats every unit at least this often, however long a
#: pass takes.
MIN_PASSES = 3
#: Set-up is cheap; it is timed this often after every timed sample of
#: a unit, so its samples spread over the whole run like the units'
#: own, and the median calibrated time is kept.
SETUP_REPEATS = {"paper256": 2, "campaign_cold": 12, "campaign_warm": 12}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "points_per_s": "1/s",
                    "msgs_per_s": "1/s", "peak_rss_mb": "MB"}


def machine_stamp() -> dict:
    """Python, platform, CPU count, CPU model and load at start."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(), "cpu_model": model,
            "loadavg_start": load}


def import_repro():
    """Import the simulator from this checkout's ``src/`` or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"from this checkout", file=sys.stderr)
        raise SystemExit(2)
    return repro


def refuse_instrumentation() -> None:
    """Exit 2 when anything would time an instrumented simulator:
    ``obs`` spans/profiling, the event log, heartbeats, queued
    telemetry probes, or an interpreter-level tracer/profiler."""
    from repro.obs import OBS
    from repro.scenarios import run as scenario_run
    reasons = []
    if OBS.enabled or OBS.profiler is not None:
        reasons.append("obs is enabled")
    if OBS.events is not None or OBS.heartbeat is not None:
        reasons.append("the event log or heartbeats are on")
    if scenario_run._PROBE_STACK:
        reasons.append("telemetry probes are queued")
    if sys.gettrace() is not None or sys.getprofile() is not None:
        reasons.append("a Python tracer or profiler is active")
    if reasons:
        print("perfbench: refusing to time: " + "; ".join(reasons),
              file=sys.stderr)
        raise SystemExit(2)


def measure(bench, seconds: float, on_result, clock,
            setup_repeats: int) -> tuple:
    """Round-robin repeats of the units until ``seconds`` have passed
    and every unit ran at least :data:`MIN_PASSES` times; after each,
    ``setup_repeats`` timed set-ups of the same unit.

    Returns ``({unit: [calibrated s]}, {unit: [raw s]}, {unit:
    [calibrated set-up s]})``.  ``on_result(unit, output)`` checks each
    unit's output; a unit that raises, or whose check fails,
    contributes no time.
    """
    calibrated = {unit: [] for unit in bench.units}
    raw = {unit: [] for unit in bench.units}
    setup = {unit: [] for unit in bench.units}
    runs = dict.fromkeys(bench.units, 0)
    deadline = time.perf_counter() + seconds
    for unit in itertools.cycle(bench.units):
        if time.perf_counter() >= deadline \
                and min(runs.values()) >= MIN_PASSES:
            break
        runs[unit] += 1
        try:
            call = bench.start(unit)
            gc.collect()
            output, elapsed, scaled = clock.time(call)
        except Exception as exc:                  # counted, reported
            on_result(unit, exc)
            clock.forget()
            continue
        if on_result(unit, output):
            raw[unit].append(elapsed)
            calibrated[unit].append(scaled)
        for _repeat in range(setup_repeats):
            bench.prepare_setup(unit)
            gc.collect()
            _machine, _raw, scaled = clock.time(
                lambda: bench.setup_once(unit))
            setup[unit].append(scaled)
    return calibrated, raw, setup


class Gate:
    """The correctness gate: goldens, determinism and workload checks.

    Every unit execution is one attempt per point it covers; an
    exception, a failed check, a signature that differs from the
    recorded golden, or one that differs from the unit's first repeat
    in this run counts all of its points as failed.
    """

    def __init__(self, bench, goldens) -> None:
        self.bench = bench
        self.goldens = goldens
        self.first: dict = {}
        self.messages: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def __call__(self, unit: str, output) -> bool:
        points = self.bench.points_per_unit
        self.attempted += points
        try:
            if isinstance(output, Exception):
                raise output
            signature, messages = self.bench.check(unit, output)
            golden = (self.goldens or {}).get(unit)
            if golden is not None and golden != signature:
                raise AssertionError(
                    f"signature {signature} != golden {golden}")
            first = self.first.setdefault(unit, signature)
            if first != signature:
                raise AssertionError(
                    f"signature {signature} != first repeat {first}")
        except Exception as exc:
            self.fail(points, f"{unit}: {type(exc).__name__}: {exc}")
            return False
        self.messages[unit] = messages
        return True

    def fail(self, points: int, error: str) -> None:
        """Count ``points`` already attempted as failed."""
        self.failed += points
        self.errors.append(error)


def load_goldens(key: str, seed: int):
    """The recorded ``{unit: signature}`` of a golden table at a seed,
    or ``None`` when that seed has no goldens."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "goldens.json")
    try:
        with open(path) as stream:
            table = json.load(stream)
    except OSError:
        return None
    return table.get(key, {}).get(str(seed))


def end_to_end(bench, gate, calibrated, setup) -> dict:
    setup_s = sum(statistics.median(values) for values in setup.values())
    medians = {unit: statistics.median(values)
               for unit, values in calibrated.items() if values}
    wall = sum(medians.values())
    points = bench.points_per_unit * len(medians)
    messages = sum(gate.messages.get(unit, 0) for unit in medians)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup_s, "wall_s": wall,
              "points_per_s": points / wall if wall else 0.0,
              "msgs_per_s": messages / wall if wall else 0.0,
              "peak_rss_mb": rss_mb}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper256", "campaign_cold",
                                 "campaign_warm"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(args, stamp, gate, calibrated, raw, clock, metrics, traced):
    """The human-readable lines above the result line."""
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "golden": gate.goldens is not None,
                      "machine": stamp}, sort_keys=True))
    kernel = sorted(clock.kernel)
    print(f"  calibration kernel: median "
          f"{statistics.median(kernel) * 1000:.2f} ms, min "
          f"{kernel[0] * 1000:.2f} ms over {len(kernel)} runs "
          f"(nominal {NOMINAL_S * 1000:.1f} ms)")
    print(f"  {'unit':28s} {'calibrated':>11s} {'raw min':>9s} "
          f"{'raw median':>11s}  repeats")
    for unit, values in calibrated.items():
        if values:
            print(f"  {unit:28s} {statistics.median(values) * 1000:8.2f} ms "
                  f"{min(raw[unit]) * 1000:6.1f} ms "
                  f"{statistics.median(raw[unit]) * 1000:8.1f} ms  "
                  f"{len(values)}")
        else:
            print(f"  {unit:28s} failed")
    for error in gate.errors:
        print(f"  FAILED {error}")
    for name, metric in metrics.items():
        print(f"  {name:14s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_frac':14s} {gate.failed / max(1, gate.attempted):.6g} "
          f"({gate.failed}/{gate.attempted} points)")
    for name, metric in (traced or {}).items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    stamp = machine_stamp()
    import_repro()
    refuse_instrumentation()
    from units import WORKLOADS

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    bench = None
    try:
        bench = WORKLOADS[args.workload](args.seed, workdir)
        gate = Gate(bench, load_goldens(bench.golden_key, args.seed))
        clock = Clock()
        calibrated, raw, setup = measure(bench, args.seconds, gate, clock,
                                         SETUP_REPEATS[args.workload])
        metrics = end_to_end(bench, gate, calibrated, setup)
        traced = None
        if args.trace:
            from ledger import traced_pass
            untraced = sum(min(values) for values in raw.values() if values)
            traced = traced_pass(bench, gate, untraced)
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    report(args, stamp, gate, calibrated, raw, clock, metrics, traced)
    print(json.dumps({
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": traced if traced is not None else metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
