"""Ablation — LRSCwait_q queue-slot sweep (§III-B trade-off).

The paper's Fig. 3 shows bounded queues collapsing "when the contention
is higher than their number of reservations".  This ablation pins the
contention (all cores on one bin) and sweeps q to locate the knee:
throughput should climb with q and saturate once q covers the core
count.
"""

from repro.eval.harness import SeriesSpec, histogram_spec
from repro.eval.reporting import render_table
from repro.scenarios import run_scenario

from common import BENCH_CORES, BENCH_UPDATES, report, run_experiment

SLOT_SWEEP = [1, 2, 4, 8, 16, None]  # None = ideal (one slot per core)


def sweep():
    rows = []
    for slots in SLOT_SWEEP:
        spec = SeriesSpec(
            f"LRSCwait_{slots if slots else 'ideal'}",
            "lrscwait", "wait", queue_slots=slots)
        point = run_scenario(
            histogram_spec(spec, BENCH_CORES, 1, BENCH_UPDATES)).point
        rows.append((spec.label, point.throughput,
                     point.wait_rejections))
    return rows


def test_ablation_queue_slots(benchmark):
    rows = run_experiment(benchmark, sweep)
    rendered = render_table(
        ["variant", "updates/cycle", "QUEUE_FULL bounces"], rows,
        title=f"Ablation — LRSCwait_q at 1 bin, {BENCH_CORES} cores")
    throughputs = [row[1] for row in rows]
    report(benchmark, rendered,
           ideal_over_q1=throughputs[-1] / throughputs[0])
    # Monotone-ish growth to saturation, and rejections vanish at ideal.
    assert throughputs[-1] > throughputs[0]
    assert rows[-1][2] == 0
    assert rows[0][2] > 0
