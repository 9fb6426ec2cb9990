"""Microbenchmarks of the simulator substrate itself.

Not a paper experiment: these track the host-side cost of the
discrete-event kernel and a representative end-to-end simulation, so
regressions in simulator performance are caught alongside the paper
benches.  ``test_variant_registry_dispatch`` guards the PR-5 open
variant API: adapter construction and capability queries now go
through a registry lookup, which must stay within noise of the
``PR1-fast-path`` end-to-end baseline (the registry sits on the
machine-build path, never in the event loop).
``test_paper_scale_colibri_point`` is the one point at the paper's 256
cores: the per-request message path (core → network → bank → adapter →
response) dominates there, so the perf gate sees a hot-path regression
at the scale the figures are reproduced at.
"""

from repro import Machine, SystemConfig, VariantSpec
from repro.engine.simulator import Simulator
from repro.eval import fig3
from repro.scenarios import run_scenario

from common import NOISE_FACTOR, baseline_median


def test_event_kernel_throughput(benchmark):
    """Schedule-and-run cost of 20k chained events."""

    def run():
        sim = Simulator()
        remaining = [20_000]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(1, tick)

        sim.schedule(1, tick)
        sim.run()
        return sim.now

    cycles = benchmark(run)
    assert cycles == 20_000


def test_end_to_end_histogram_sim(benchmark):
    """A representative 16-core Colibri histogram, measured end to end."""

    def run():
        machine = Machine(SystemConfig.scaled(16), VariantSpec.colibri(),
                          seed=1)
        counter = machine.allocator.alloc_interleaved(1)

        def kernel(api):
            for _ in range(8):
                resp = yield from api.lrwait(counter)
                yield from api.compute(1)
                yield from api.scwait(counter, resp.value + 1)
                yield from api.retire()

        machine.load_all(kernel)
        stats = machine.run()
        return stats.total_ops

    ops = benchmark(run)
    assert ops == 16 * 8


def test_variant_registry_dispatch(benchmark):
    """Machine build + run with registry-dispatched adapters.

    Identical workload to ``test_end_to_end_histogram_sim`` — the
    adapter now comes from the variant registry instead of an if/elif
    chain, and this bench asserts (when timing) that the whole
    build-and-run stays within noise of the pre-registry baseline.
    """

    variants = [VariantSpec.colibri(), VariantSpec.lrscwait(8),
                VariantSpec.lrsc(), VariantSpec.amo()]

    def run():
        machine = Machine(SystemConfig.scaled(16), VariantSpec.colibri(),
                          seed=1)
        counter = machine.allocator.alloc_interleaved(1)

        def kernel(api):
            for _ in range(8):
                resp = yield from api.lrwait(counter)
                yield from api.compute(1)
                yield from api.scwait(counter, resp.value + 1)
                yield from api.retire()

        machine.load_all(kernel)
        stats = machine.run()
        # Registry-built machines for the other kinds: construction is
        # where the dispatch changed, so it belongs in the measurement.
        for variant in variants:
            Machine(SystemConfig.scaled(16), variant, seed=1)
        return stats.total_ops

    ops = benchmark(run)
    assert ops == 16 * 8
    if not benchmark.enabled:
        return  # --benchmark-disable: correctness-only execution
    median = benchmark.stats.stats.median
    baseline = baseline_median("test_end_to_end_histogram_sim")
    benchmark.extra_info["pr1_fast_path_median_s"] = baseline
    # 4 extra machine constructions ride along; allow them one extra
    # noise factor on top of the end-to-end budget.
    budget = baseline * NOISE_FACTOR + 4 * baseline * 0.25
    assert median <= budget, (
        f"registry-dispatch build+run median {median:.6f}s exceeds "
        f"{budget:.6f}s — variant-registry dispatch regressed the "
        f"machine-build/fast path")


def test_paper_scale_colibri_point(benchmark):
    """Fig. 3's Colibri point at 64 bins on the paper's 256 cores."""
    spec = fig3.point_spec("Colibri", 64, num_cores=256, seed=0)

    result = benchmark(run_scenario, spec)
    # Pinned to the event stream: a hot-path change must not move it.
    assert (result.cycles, result.messages) == (1616, 11486)
