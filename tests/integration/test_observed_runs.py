"""Observing a run never changes what it simulates, for any variant.

The per-request path forks on observation only: an enabled tracer or a
``core_state`` subscriber sends a core's state changes through
``Core._set_state``, and probes add hook callbacks at every hop.  Each
registered variant runs ``histogram`` (and ``queue`` when it has wait
ops) three ways — plain, with every registered probe attached, and
with an enabled tracer — and all three must count the same.
"""

import dataclasses

import pytest

from repro.telemetry.trace import Tracer
from repro.memory.variants import VariantSpec, list_variants
from repro.scenarios import build_machine, default_spec, get_workload
from repro.scenarios.spec import variant_string
from repro.telemetry import list_probes


def _cases():
    for name, plugin in list_variants():
        variant = variant_string(
            VariantSpec(name, params=plugin.listing_params()))
        yield pytest.param("histogram", variant,
                           {"bins": 2, "updates_per_core": 3},
                           id=f"histogram-{variant}")
        if plugin.supports_wait:
            yield pytest.param("queue", variant, {"ops_per_core": 4},
                               id=f"queue-{variant}")


def _counts(workload, variant, params, observe):
    spec = default_spec(workload, num_cores=16,
                        variant=variant).with_params(**params)
    tracer = Tracer(enabled=True) if observe == "tracer" else None
    machine = build_machine(spec, tracer=tracer)
    get_workload(workload).load(machine, spec)
    if observe == "probes":
        machine.attach_probes([name for name, _cls in list_probes()])
        assert machine.telemetry.on_core_state is not None
    stats = machine.run()
    if observe == "tracer":
        assert tracer.records
    return {
        "cycles": stats.cycles,
        "cores": [dataclasses.asdict(core) for core in stats.cores],
        "banks": [dataclasses.asdict(bank) for bank in stats.banks],
        "network": dataclasses.asdict(stats.network),
    }


@pytest.mark.parametrize("workload, variant, params", _cases())
def test_observed_run_counts_what_the_plain_run_counts(workload, variant,
                                                        params):
    plain = _counts(workload, variant, params, None)
    assert plain["network"]["messages"]
    assert _counts(workload, variant, params, "probes") == plain
    assert _counts(workload, variant, params, "tracer") == plain
