"""``batch`` is an accepted no-op; ``Machine.reset()`` is a fresh build.

Every scenario point builds its machine fresh, so ``batch=True`` must
change nothing — with or without ``jobs`` — and an adapter keeps
whatever mutable state it likes without a reset method.
"""

import dataclasses

import pytest

from repro.dse import Campaign, SearchSpace, parse_objectives
from repro.engine.errors import SimulationError
from repro.eval.runner import ResultCache
from repro.interconnect.messages import Status
from repro.memory.lrsc import LrscAdapter
from repro.memory.variants import (
    AtomicVariant,
    list_variants,
    register_variant,
    unregister_variant,
)
from repro.scenarios import default_spec, run_scenario, run_scenarios
from repro.scenarios.registry import get_workload, list_workloads
from repro.scenarios.run import (
    apply_settings,
    build_machine,
    scenario_cache_key,
    sweep,
)


def smoke_spec(workload: str, **params):
    workload_cls = get_workload(workload)
    spec = apply_settings(default_spec(workload),
                          dict(workload_cls.smoke))
    if params:
        spec = spec.with_params(**params)
    spec.validate()
    return spec


def run_on(machine, spec):
    """Load ``spec``'s workload onto ``machine`` and run it."""
    get_workload(spec.workload).load(machine, spec)
    return machine.run()


# -- batch == sequential goldens -----------------------------------------------


def test_batch_equals_sequential_across_all_workloads():
    specs = [smoke_spec(name) for name, _cls in list_workloads()]
    sequential = run_scenarios(specs)
    batched = run_scenarios(specs, batch=True)
    assert batched == sequential


def test_batch_equals_sequential_across_methods_and_variants():
    specs = []
    for method, variant in [("amo", "lrsc"), ("lrsc", "lrsc"),
                            ("lrsc", "lrsc_table"),
                            ("wait", "lrscwait:2"), ("wait", "colibri"),
                            ("wait", "ticket")]:
        specs.append(dataclasses.replace(
            smoke_spec("histogram", method=method), variant=variant))
    assert run_scenarios(specs, batch=True) == run_scenarios(specs)


def test_batch_results_align_with_input_order():
    specs = [smoke_spec("histogram", bins=bins) for bins in (1, 2, 4)]
    results = run_scenarios(specs, batch=True)
    assert [r.spec for r in results] == specs


def test_batch_handles_composite_workloads():
    spec = smoke_spec("interference")
    assert run_scenarios([spec], batch=True) == run_scenarios([spec])


# -- Machine.reset() is a fresh build ------------------------------------------


def test_reset_leaves_no_state_behind_a_b_a():
    # A-B-A through one machine: the third result must equal the first
    # bit-for-bit, or the reset leaked state from B.
    spec_a = smoke_spec("histogram", bins=2)
    spec_b = smoke_spec("histogram", bins=8, updates_per_core=4)
    machine = build_machine(spec_a)
    first = run_on(machine, spec_a)
    machine.reset()
    run_on(machine, spec_b)
    machine.reset()
    third = run_on(machine, spec_a)
    assert third == first
    assert third is not first


def test_batch_stats_are_detached_copies():
    spec = smoke_spec("histogram")
    results = run_scenarios([spec, spec], batch=True)
    assert results[0].stats == results[1].stats
    assert results[0].stats is not results[1].stats


def test_machine_reset_restores_fresh_behavior():
    spec = smoke_spec("histogram", method="wait")
    reference = run_scenario(spec)
    machine = build_machine(spec)
    run_on(machine, spec)
    machine.reset()
    warm = run_on(machine, spec)
    assert warm.cycles == reference.cycles
    assert warm == reference.stats


def every_variant():
    """Each registered variant, required parameters set to 2."""
    for name, plugin in list_variants():
        required = [key for key, schema in plugin.params.items()
                    if schema.required]
        params = ",".join(f"{key}=2" for key in required)
        yield f"{name}:{params}" if params else name


@pytest.mark.parametrize("variant", list(every_variant()))
def test_machine_reset_equals_fresh_build_for_every_variant(variant):
    spec = dataclasses.replace(
        smoke_spec("histogram", bins=1, updates_per_core=3),
        variant=variant)
    machine = build_machine(spec)
    run_on(machine, spec)
    machine.reset()
    again = run_on(machine, spec)
    fresh = run_on(build_machine(spec), spec)
    assert again.cycles == fresh.cycles
    assert again == fresh


def test_machine_reset_refuses_probes():
    spec = smoke_spec("histogram")
    machine = build_machine(spec)
    machine.attach_probes(["bank_contention"])
    with pytest.raises(SimulationError, match="probes"):
        machine.reset()


class _CountingLrscAdapter(LrscAdapter):
    """Single-slot LR/SC that fails every third SC it sees: its results
    depend on mutable state, and it defines no ``reset()``."""

    def __init__(self, controller) -> None:
        super().__init__(controller)
        self.sc_seen = 0

    def _handle_sc(self, req) -> None:
        self.sc_seen += 1
        if self.sc_seen % 3 == 0:
            self.ctrl.respond(req, value=1, status=Status.SC_FAIL)
            return
        super()._handle_sc(req)


@pytest.fixture
def counting_lrsc():
    @register_variant("counting_lrsc")
    class CountingLrscVariant(AtomicVariant):
        """A stateful adapter with no reset method."""

        description = "LR/SC failing every third SC per bank"
        supports_lrsc = True
        native_method = "lrsc"

        def make_adapter(self, controller, params, num_cores, strict):
            return _CountingLrscAdapter(controller)

    try:
        yield "counting_lrsc"
    finally:
        unregister_variant("counting_lrsc")


def test_adapters_need_no_reset(counting_lrsc):
    spec = dataclasses.replace(
        smoke_spec("histogram", bins=1, updates_per_core=3),
        variant=counting_lrsc)
    first, second = run_scenarios([spec, spec], batch=True)
    assert first.stats.total_sc_failures > 0
    assert second == first


# -- cache interaction ---------------------------------------------------------


def test_batch_populates_and_hits_result_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    specs = [smoke_spec("histogram", bins=bins) for bins in (2, 4)]
    first = run_scenarios(specs, cache=cache, batch=True)
    for spec in specs:
        assert cache.lookup_hash(scenario_cache_key(spec), None) \
            is not None
    assert cache.stores == len(specs)
    hits_before = cache.hits
    second = run_scenarios(specs, cache=cache, batch=True)
    assert cache.hits == hits_before + len(specs)
    # Cache entries drop the bulky stats tree (as on the sequential
    # path); everything else round-trips bit-identically.
    assert second == [dataclasses.replace(result, stats=None)
                      for result in first]


def test_batch_with_jobs_equals_jobs():
    specs = [smoke_spec("histogram", bins=bins) for bins in (2, 4)]
    assert (run_scenarios(specs, jobs=2, batch=True)
            == run_scenarios(specs, jobs=2))


def test_campaign_batch_has_no_effect(tmp_path):
    # The call shape of the paper-scale campaign benchmark.
    def journal(name, batch):
        directory = tmp_path / name
        campaign = Campaign(
            base=default_spec("histogram", num_cores=8),
            space=SearchSpace.from_axes({"variant": ["lrsc", "colibri"],
                                         "bins": [1, 4]}),
            sampler="grid",
            objectives=parse_objectives(["min:cycles", "max:throughput"]),
            budget=4, seed=0, cache=ResultCache(str(directory / "cache")),
            journal_file=str(directory / "journal.json"), batch=batch)
        result = campaign.run()
        assert result.status == "complete"
        return [dataclasses.replace(e, wall_ms=0.0)
                for e in result.evaluations]

    assert journal("batch", True) == journal("plain", False)


# -- sweep ---------------------------------------------------------------------


def test_sweep_batch_equals_sequential():
    base = smoke_spec("histogram")
    axes = {"bins": [2, 4], "method": ["amo", "wait"]}
    assert sweep(base, axes, batch=True) == sweep(base, axes)
