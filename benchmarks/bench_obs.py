"""Observability hook cost: disabled hooks must be free.

PR 8 threads span/counter hooks through the harness hot path (cache
lookups, every scenario point and phase).  The contract mirrors PR 3's
simulator telemetry: **disabled — the default — costs one attribute
load plus a branch per site**, so the 24-point smoke campaign below
must stay within noise of the ``PR6-batch-core`` baseline with the
hooks compiled in.  That is the regression this file gates;
enabled-mode cost is reported (it pays for one event-log line per span
begin, span end and counter) but only correctness-gated, because
recording is opt-in per run.

The enabled-mode bench also reconciles the point spans against the
campaign: the ``OBS.metrics`` fold over the recorded events must report
one ``span.point`` per spec, or the instrumentation is lying about what
the harness did.

PR 9 threads a second instrument family through the same sites: the
campaign event log and its heartbeat timer (``OBS.events`` /
``OBS.heartbeat``).  Same contract, new baseline: with the event-log
hooks compiled in but off — the default — the campaign must stay
within noise of the ``PR8-obs-hooks`` floor, so the two
observability layers cannot silently stack overhead.  The events-on
bench is correctness-gated like enabled-mode tracing: one
``point_started`` record per executed spec, a schema-valid log, and
every writer closed with its farewell heartbeat.
"""

import dataclasses

from repro.obs import OBS
from repro.obs.eventlog import events_path, validate_events_file
from repro.scenarios import default_spec
from repro.scenarios.registry import get_workload
from repro.scenarios.run import apply_settings, run_scenarios

from common import NOISE_FACTOR, baseline_stat, report


def _campaign_specs():
    """A smoke-fidelity campaign: 24 histogram points at the workload's
    smoke shape, swept over bins, updates and two variants."""
    workload = get_workload("histogram")
    base = apply_settings(default_spec("histogram"),
                          dict(workload.smoke))
    specs = []
    for variant in ("colibri", "lrsc"):
        for bins in (1, 2, 4, 8):
            for updates in (2, 4, 8):
                specs.append(dataclasses.replace(
                    base.with_params(bins=bins,
                                     updates_per_core=updates),
                    variant=variant))
    return specs


def test_obs_disabled_within_batch_core_noise(benchmark):
    """Hooks off (default): the PR6 smoke campaign, unchanged."""
    specs = _campaign_specs()
    assert not OBS.enabled

    def run():
        return run_scenarios(specs)

    results = benchmark.pedantic(run, rounds=5, iterations=1)
    assert len(results) == len(specs)
    if not benchmark.enabled:
        return  # --benchmark-disable: correctness-only execution
    best = benchmark.stats.stats.min
    baseline = baseline_stat("test_batch_campaign_throughput",
                             "PR6-batch-core", stat="min")
    report(benchmark,
           f"obs-disabled campaign: min {best:.4f}s vs "
           f"PR6-batch-core {baseline:.4f}s "
           f"(x{best / baseline:.2f})",
           baseline_s=round(baseline, 6),
           ratio=round(best / baseline, 3))
    assert best <= baseline * NOISE_FACTOR, (
        f"obs-disabled campaign min {best:.6f}s exceeds "
        f"{baseline:.6f}s * {NOISE_FACTOR} — the disabled-path hooks "
        f"are no longer free")


def test_obs_enabled_counters_reconcile(benchmark):
    """Hooks on: results identical, one point span per spec."""
    specs = _campaign_specs()

    def run():
        OBS.enable()
        try:
            results = run_scenarios(specs)
            return results, OBS.metrics.snapshot()
        finally:
            OBS.disable()

    results, snap = benchmark.pedantic(run, rounds=3, iterations=1)
    # Observation must not perturb the simulation.
    assert results == run_scenarios(specs)
    assert snap["timers"]["span.point"]["count"] == len(specs)
    if benchmark.enabled:
        report(benchmark,
               f"obs-enabled campaign: min "
               f"{benchmark.stats.stats.min:.4f}s "
               f"({len(specs)} points, "
               f"{snap['timers']['span.point']['count']} point spans)",
               point_spans=snap["timers"]["span.point"]["count"])


def test_obs_events_off_within_obs_hooks_noise(benchmark):
    """Event-log hooks off (default): within noise of PR8-obs-hooks."""
    specs = _campaign_specs()
    assert OBS.events is None and OBS.heartbeat is None

    def run():
        return run_scenarios(specs)

    results = benchmark.pedantic(run, rounds=5, iterations=1)
    assert len(results) == len(specs)
    if not benchmark.enabled:
        return  # --benchmark-disable: correctness-only execution
    best = benchmark.stats.stats.min
    baseline = baseline_stat("test_obs_disabled_within_batch_core_noise",
                             "PR8-obs-hooks", stat="min")
    report(benchmark,
           f"events-off campaign: min {best:.4f}s vs "
           f"PR8-obs-hooks {baseline:.4f}s "
           f"(x{best / baseline:.2f})",
           baseline_s=round(baseline, 6),
           ratio=round(best / baseline, 3))
    assert best <= baseline * NOISE_FACTOR, (
        f"events-off campaign min {best:.6f}s exceeds "
        f"{baseline:.6f}s * {NOISE_FACTOR} — the event-log hooks "
        f"are no longer free when disabled")


def test_obs_events_enabled_campaign_reconciles(benchmark, tmp_path):
    """Events on: results identical, log reconciles, farewells written."""
    specs = _campaign_specs()
    directory = str(tmp_path / "camp")
    rounds = []

    def run():
        OBS.open_events(events_path(directory))
        try:
            results = run_scenarios(specs)
        finally:
            OBS.close_events()
        rounds.append(1)
        return results

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    # Observation must not perturb the simulation.
    assert results == run_scenarios(specs)
    records, warnings = validate_events_file(events_path(directory))
    assert warnings == []
    started = [record for record in records
               if record["event"] == "point_started"]
    # One writer session per round, one point_started per spec.
    assert len(started) == len(rounds) * len(specs), (
        len(started), len(rounds), len(specs))
    # A clean close stops the heartbeat thread and says farewell: one
    # final beat per round, each the last record of its writer session.
    farewells = [position for position, record in enumerate(records)
                 if record.get("final")]
    assert len(farewells) == len(rounds)
    assert all(position + 1 == len(records)
               or records[position + 1]["seq"] == 0
               for position in farewells)
    if benchmark.enabled:
        report(benchmark,
               f"events-on campaign: min "
               f"{benchmark.stats.stats.min:.4f}s "
               f"({len(specs)} points, {len(records)} events/round "
               f"across {len(rounds)} rounds)",
               events_per_round=len(records) // len(rounds),
               point_started=len(started) // len(rounds))
