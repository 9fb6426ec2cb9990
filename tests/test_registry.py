"""The registry contract every plugin family shares."""

import pytest

from repro.dse.samplers import (
    Sampler,
    UnknownSamplerError,
    get_sampler,
    list_samplers,
    register_sampler,
    unregister_sampler,
)
from repro.engine.errors import ConfigError
from repro.memory.variants import (
    AtomicVariant,
    UnknownVariantError,
    get_variant,
    list_variants,
    register_variant,
    unregister_variant,
)
from repro.scenarios.registry import (
    UnknownWorkloadError,
    Workload,
    get_workload,
    list_workloads,
    register_workload,
    unregister_workload,
)
from repro.telemetry.probes import (
    Probe,
    UnknownProbeError,
    get_probe,
    list_probes,
    register_probe,
    unregister_probe,
)

FAMILIES = {
    "workload": (register_workload, unregister_workload, get_workload,
                 list_workloads, UnknownWorkloadError, Workload),
    "variant": (register_variant, unregister_variant, get_variant,
                list_variants, UnknownVariantError, AtomicVariant),
    "probe": (register_probe, unregister_probe, get_probe, list_probes,
              UnknownProbeError, Probe),
    "sampler": (register_sampler, unregister_sampler, get_sampler,
                list_samplers, UnknownSamplerError, Sampler),
}

NAME = "contract_toy"


def _class_of(entry):
    """Workloads and variants store an instance, probes and samplers
    the class itself."""
    return entry if isinstance(entry, type) else type(entry)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_registry_contract(family):
    register, unregister, get, items, error, base = FAMILIES[family]
    first = type("First", (base,), {})
    second = type("Second", (base,), {})

    register(NAME)(first)
    try:
        assert _class_of(get(NAME)) is first
        assert get(NAME).name == NAME
        with pytest.raises(ConfigError,
                           match=rf"{family} '{NAME}' already registered "
                                 rf"\(First\); pass replace=True"):
            register(NAME)(second)
        assert _class_of(get(NAME)) is first     # refused, not replaced

        register(NAME, replace=True)(second)
        assert _class_of(get(NAME)) is second
        assert _class_of(dict(items())[NAME]) is second
    finally:
        unregister(NAME)

    assert NAME not in dict(items())
    unregister(NAME)                             # idempotent
    with pytest.raises(error) as info:
        get(NAME)
    names = ", ".join(name for name, _entry in items())
    assert str(info.value).endswith(f"registered under {NAME!r}; "
                                    f"registered: {names}")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_registry_rejects_empty_names(family):
    register = FAMILIES[family][0]
    with pytest.raises(ConfigError, match="must be a non-empty string"):
        register("")
