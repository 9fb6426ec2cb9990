"""Tests for variant specifications and adapter construction."""

import pytest

from repro.engine.errors import ConfigError
from repro.memory.adapter import AmoAdapter
from repro.memory.colibri import ColibriAdapter
from repro.memory.controller import adapter_factory
from repro.memory.lrsc import LrscAdapter
from repro.memory.lrsc_variants import LrscBankAdapter, LrscTableAdapter
from repro.memory.lrscwait import LrscWaitAdapter
from repro.memory.variants import VARIANT_KINDS, VariantSpec

from .fake_controller import FakeController


def test_factories_produce_expected_kinds():
    assert VariantSpec.amo().kind == "amo"
    assert VariantSpec.lrsc().kind == "lrsc"
    assert VariantSpec.lrsc_table().kind == "lrsc_table"
    assert VariantSpec.lrsc_bank().kind == "lrsc_bank"
    assert VariantSpec.lrscwait(4).queue_slots == 4
    assert VariantSpec.lrscwait_ideal().queue_slots is None
    assert VariantSpec.colibri(8).num_addresses == 8


def test_all_kinds_registered():
    for kind in VARIANT_KINDS:
        VariantSpec(kind=kind)  # must not raise


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        VariantSpec(kind="mystery")


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigError):
        VariantSpec(kind="lrscwait", queue_slots=0)
    with pytest.raises(ConfigError):
        VariantSpec(kind="colibri", num_addresses=0)


def test_capability_queries():
    assert VariantSpec.lrsc().supports_lrsc
    assert VariantSpec.lrsc_table().supports_lrsc
    assert VariantSpec.lrsc_bank().supports_lrsc
    assert not VariantSpec.colibri().supports_lrsc
    assert VariantSpec.colibri().supports_wait
    assert VariantSpec.lrscwait(2).supports_wait
    assert not VariantSpec.amo().supports_wait
    assert not VariantSpec.amo().supports_lrsc


def test_labels():
    assert VariantSpec.amo().label() == "AtomicAdd"
    assert VariantSpec.lrsc().label() == "LRSC"
    assert VariantSpec.lrsc_table().label() == "LRSC_table"
    assert VariantSpec.lrsc_bank().label() == "LRSC_bank"
    assert VariantSpec.lrscwait(8).label() == "LRSCwait_8"
    assert VariantSpec.lrscwait_ideal().label() == "LRSCwait_ideal"
    assert VariantSpec.colibri().label() == "Colibri"


@pytest.mark.parametrize("spec,adapter_cls", [
    (VariantSpec.amo(), AmoAdapter),
    (VariantSpec.lrsc(), LrscAdapter),
    (VariantSpec.lrsc_table(), LrscTableAdapter),
    (VariantSpec.lrsc_bank(), LrscBankAdapter),
    (VariantSpec.lrscwait(4), LrscWaitAdapter),
    (VariantSpec.lrscwait_ideal(), LrscWaitAdapter),
    (VariantSpec.colibri(2), ColibriAdapter),
])
def test_build_adapter_dispatch(spec, adapter_cls):
    adapter = adapter_factory(spec, num_cores=16,
                              strict=True)(FakeController())
    assert isinstance(adapter, adapter_cls)


def test_ideal_queue_sized_to_core_count():
    adapter = adapter_factory(VariantSpec.lrscwait_ideal(), num_cores=64,
                              strict=True)(FakeController())
    assert adapter.queue_slots == 64


def test_colibri_adapter_gets_address_count():
    adapter = adapter_factory(VariantSpec.colibri(7), num_cores=16,
                              strict=True)(FakeController())
    assert adapter.num_addresses == 7
