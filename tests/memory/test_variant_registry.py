"""The open variant API: registry, schemas, cost hooks, new variants."""

import pytest

from repro.engine.errors import ConfigError
from repro.machine import Machine
from repro.arch.config import SystemConfig
from repro.memory.extra_variants import LrscBackoffAdapter, TicketAdapter
from repro.memory.variants import (
    AtomicVariant,
    UnknownVariantError,
    VariantParam,
    VariantSpec,
    get_variant,
    list_variants,
    register_variant,
    unregister_variant,
)
from repro.power.area import TILE_BASE_KGE, variant_overhead_kge
from repro.power.energy import EnergyModel
from repro.scenarios.spec import parse_variant, variant_string

from .fake_controller import FakeController


# -- registry mechanics --------------------------------------------------------


class _ToyAdapter:
    def __init__(self, controller, knob):
        self.ctrl = controller
        self.knob = knob


@pytest.fixture
def toy_variant():
    @register_variant("toy")
    class ToyVariant(AtomicVariant):
        """A registration-test variant."""

        description = "toy"
        params = {"knob": VariantParam(default=3, minimum=1,
                                       symbolic=("cores",))}
        positional = "knob"
        supports_lrsc = True
        native_method = "lrsc"

        def make_adapter(self, controller, params, num_cores, strict):
            return _ToyAdapter(controller, params["knob"])

        def tile_area_kge(self, params, num_cores, banks=None, cores=None):
            return 2.0 * params["knob"]

    yield ToyVariant
    unregister_variant("toy")


def test_register_and_lookup(toy_variant):
    assert get_variant("toy").description == "toy"
    assert "toy" in dict(list_variants())
    from repro.memory.variants import VARIANT_KINDS
    assert "toy" in VARIANT_KINDS            # live registry view


def test_duplicate_registration_rejected(toy_variant):
    with pytest.raises(ConfigError, match="already registered"):
        register_variant("toy")(toy_variant)
    register_variant("toy", replace=True)(toy_variant)  # explicit shadow


def test_registration_rejects_unparseable_names():
    """Grammar punctuation and the 'ideal' alias can never resolve."""
    for bad in ("my-variant", "a:b", "a=b", "a,b", "ideal", ""):
        with pytest.raises(ConfigError):
            register_variant(bad)


def test_registration_rejects_unresolvable_symbolic_tokens():
    """A schema token without a resolution rule fails at import time,
    not with a KeyError mid-run."""
    with pytest.raises(ConfigError, match="no resolution rule"):
        @register_variant("sym_toy")
        class SymToy(AtomicVariant):
            """Bad symbolic declaration."""
            params = {"knob": VariantParam(default=1, symbolic=("max",))}
    unregister_variant("sym_toy")


def test_unknown_variant_error_everywhere():
    with pytest.raises(UnknownVariantError):
        get_variant("warp")
    with pytest.raises(UnknownVariantError):
        VariantSpec(kind="warp")
    with pytest.raises(UnknownVariantError):
        parse_variant("warp:8", 16)


def test_registered_variant_parses_and_builds(toy_variant):
    variant = parse_variant("toy:5", 16)
    assert variant.get("knob") == 5
    assert variant_string(variant) == "toy:5"
    assert variant.supports_lrsc and variant.native_method == "lrsc"
    from repro.memory.controller import adapter_factory
    adapter = adapter_factory(variant, num_cores=16,
                              strict=True)(FakeController())
    assert isinstance(adapter, _ToyAdapter) and adapter.knob == 5


def test_symbolic_values_resolve_at_build_time(toy_variant):
    variant = VariantSpec(kind="toy", knob="cores")
    assert variant.get("knob") == "cores"    # stored symbolically
    assert variant.resolved(num_cores=16) == {"knob": 16}
    from repro.memory.controller import adapter_factory
    adapter = adapter_factory(variant, num_cores=64,
                              strict=True)(FakeController())
    assert adapter.knob == 64


def test_unresolvable_parameter_raises_at_machine_build():
    """Parameters resolve when the machine is built, although each
    bank's adapter is built only when the bank is first reached."""
    @register_variant("wide_toy")
    class WideToy(AtomicVariant):
        """Needs at least 32 slots; ``half`` gives that from 64 cores."""
        params = {"knob": VariantParam(default="half", minimum=32,
                                       symbolic=("half",))}

        def make_adapter(self, controller, params, num_cores, strict):
            return _ToyAdapter(controller, params["knob"])

    try:
        with pytest.raises(ConfigError, match=">= 32, got 8"):
            Machine(SystemConfig.scaled(16), VariantSpec(kind="wide_toy"))
        machine = Machine(SystemConfig.scaled(64),
                          VariantSpec(kind="wide_toy"))
        assert machine.banks[5].adapter.knob == 32
    finally:
        unregister_variant("wide_toy")


def test_param_schema_validation(toy_variant):
    with pytest.raises(ConfigError, match="no parameter"):
        VariantSpec(kind="toy", slots=4)
    with pytest.raises(ConfigError, match=">= 1"):
        VariantSpec(kind="toy", knob=0)
    with pytest.raises(ConfigError, match="not an int"):
        VariantSpec(kind="toy", knob="half")   # not in its symbolic set
    with pytest.raises(ConfigError, match="must be an int"):
        VariantSpec(kind="toy", knob=2.5)


def test_area_hook_flows_through_model(toy_variant):
    variant = VariantSpec(kind="toy", knob=5)
    assert variant_overhead_kge(variant, num_cores=64) == 10.0
    from repro.power.area import system_overhead_kge
    assert system_overhead_kge(64, "toy") == (64 // 4) * 6.0  # default knob


# -- built-in hooks reproduce the fitted Table I model -------------------------


def test_builtin_area_hooks_match_fitted_models():
    from repro.power.area import colibri_tile, lrscwait_tile
    assert variant_overhead_kge(VariantSpec.lrscwait(8), 256) \
        == lrscwait_tile(8).kge - TILE_BASE_KGE
    assert variant_overhead_kge(VariantSpec.lrscwait_ideal(), 256) \
        == lrscwait_tile(256).kge - TILE_BASE_KGE
    assert variant_overhead_kge(VariantSpec.colibri(4), 256) \
        == colibri_tile(4).kge - TILE_BASE_KGE
    assert variant_overhead_kge(VariantSpec.amo(), 256) == 0.0


def test_related_work_variants_now_have_area_models():
    """Pre-registry, these kinds raised; now the §II storage-scaling
    story is quantified: per-core tables dwarf everything."""
    from repro.power.area import system_overhead_kge
    table = system_overhead_kge(256, "lrsc_table")
    bank_bits = system_overhead_kge(256, "lrsc_bank")
    slot = system_overhead_kge(256, "lrsc")
    assert table > bank_bits > slot > 0
    assert table > system_overhead_kge(256, "colibri")


# -- the two registered extra variants -----------------------------------------


def _run_counter_storm(variant_text, num_cores=8, increments=6):
    machine = Machine(SystemConfig.scaled(num_cores),
                      parse_variant(variant_text, num_cores), seed=1)
    counter = machine.allocator.alloc_interleaved(1)
    wait = parse_variant(variant_text, num_cores).supports_wait

    def kernel(api):
        for _ in range(increments):
            if wait:
                resp = yield from api.lrwait(counter)
                yield from api.scwait(counter, resp.value + 1)
            else:
                while True:
                    value = yield from api.lr(counter)
                    ok = yield from api.sc(counter, value + 1)
                    if ok:
                        break
            yield from api.retire()

    machine.load_all(kernel)
    stats = machine.run()
    assert machine.peek(counter) == num_cores * increments
    return machine, stats


def test_lrsc_backoff_correct_and_throttled():
    machine, stats = _run_counter_storm("lrsc_backoff:base=4,cap=32")
    assert isinstance(machine.banks[0].adapter, LrscBackoffAdapter)
    _machine, plain = _run_counter_storm("lrsc")
    # The throttle's whole point: fewer failed SCs than raw LR/SC.
    assert stats.total_sc_failures < plain.total_sc_failures


def test_ticket_correct_and_bounds_tracked_addresses():
    machine, stats = _run_counter_storm("ticket:2")
    adapter = machine.banks[0].adapter
    assert isinstance(adapter, TicketAdapter)
    assert adapter.num_addresses == 2
    assert stats.total_sc_failures == 0      # wait queues retry-free


def test_ticket_rejects_waits_beyond_tracked_addresses():
    from repro.interconnect.messages import Op, Status

    from .fake_controller import request
    adapter = TicketAdapter(FakeController(), num_addresses=1)
    adapter.handle(request(Op.LRWAIT, 0, 0x0))
    adapter.handle(request(Op.LRWAIT, 1, 0x0))
    assert adapter.tracked_addresses == 1
    adapter.handle(request(Op.LRWAIT, 2, 0x4))
    assert adapter.ctrl.last_response().status is Status.QUEUE_FULL
    # Unbounded waiters on the one tracked address, though.
    adapter.handle(request(Op.LRWAIT, 3, 0x0))
    assert adapter.pending_waiters() == 3


def test_energy_hook_charges_extra_variants_only():
    _machine, builtin = _run_counter_storm("colibri")
    _machine, ticket = _run_counter_storm("ticket")
    assert EnergyModel().evaluate(builtin).adapter_pj == 0.0
    report = EnergyModel().evaluate(ticket)
    assert report.adapter_pj > 0.0
    assert report.total_pj == pytest.approx(
        report.core_pj + report.bank_pj + report.network_pj
        + report.adapter_pj)
