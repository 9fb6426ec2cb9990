"""The adapter dispatch contract, through variants registered here.

An adapter class maps ops to methods in
:attr:`~AtomicAdapter.OP_METHODS` (extending its bases' map) or
overrides ``handle_reserved``/``handle``; from that, each class derives
once the per-op service table the bank controller calls.  Throwaway
variants with their own adapters check that contract end to end; each
is unregistered again after its test.
"""

import pytest

from repro.arch.config import SystemConfig
from repro.cores.api import MemCmd
from repro.engine.errors import ProtocolViolation
from repro.interconnect.messages import Op, Status
from repro.machine import Machine
from repro.memory import adapter as adapter_module
from repro.memory.adapter import AmoAdapter, AtomicAdapter
from repro.memory.lrsc_variants import LrscTableAdapter
from repro.memory.variants import (
    AtomicVariant,
    VariantSpec,
    list_variants,
    register_variant,
    unregister_variant,
)


class _RecordingAdapter(AtomicAdapter):
    """Accepts LR beyond the base ops through an overriding
    ``handle_reserved`` and records what reaches it."""

    EXTRA_OPS = frozenset({Op.LR})

    def __init__(self, controller) -> None:
        super().__init__(controller)
        self.reserved: list = []

    def handle_reserved(self, req) -> None:
        self.reserved.append(req.op)
        self.ctrl.respond(req, value=self.ctrl.read(req.addr))


class _MappedAdapter(AtomicAdapter):
    """Accepts LR through a mapped method."""

    OP_METHODS = {Op.LR: "_lr"}

    def __init__(self, controller) -> None:
        super().__init__(controller)
        self.reserved: list = []

    def _lr(self, req) -> None:
        self.reserved.append(req.op)
        self.ctrl.respond(req, self.ctrl.read(req.addr))


class _ReservedOverride(LrscTableAdapter):
    """Overrides only ``handle_reserved``; its parent maps LR and SC."""

    def __init__(self, controller) -> None:
        super().__init__(controller)
        self.reserved: list = []

    def handle_reserved(self, req) -> None:
        self.reserved.append(req.op)
        super().handle_reserved(req)


class _HandleOverride(LrscTableAdapter):
    """Overrides only ``handle``."""

    def __init__(self, controller) -> None:
        super().__init__(controller)
        self.handled: list = []

    def handle(self, req) -> None:
        self.handled.append(req.op)
        super().handle(req)


def _machine_with(adapter_cls):
    @register_variant("dispatch_probe")
    class DispatchProbeVariant(AtomicVariant):
        """A dispatch-contract test variant."""

        description = "records reservation-family ops"

        def make_adapter(self, controller, params, num_cores, strict):
            return adapter_cls(controller)

    return Machine(SystemConfig(num_cores=16), VariantSpec("dispatch_probe"))


@pytest.fixture
def probe():
    """``probe(adapter_cls)`` builds a 16-core machine whose banks run
    ``adapter_cls``."""
    try:
        yield _machine_with
    finally:
        unregister_variant("dispatch_probe")


@pytest.fixture
def machine(probe):
    return probe(_RecordingAdapter)


def _run_one(machine, *ops):
    addr = machine.allocator.alloc_in_bank(3, 1)
    responses = []

    def kernel(api):
        for op, value in ops:
            responses.append((yield MemCmd(op, addr, value)))

    machine.load(0, kernel)
    machine.run()
    return machine.banks[3].adapter, responses


def test_extra_ops_reach_handle_reserved_and_base_ops_do_not(machine):
    adapter, _ = _run_one(machine, (Op.SW, 7), (Op.LR, 0), (Op.LW, 0))
    assert adapter.reserved == [Op.LR]
    assert machine.stats.cores[0].requests == {"sw": 1, "lr": 1, "lw": 1}


def test_mapped_ops_reach_their_method_and_base_ops_do_not(probe):
    machine = probe(_MappedAdapter)
    adapter, responses = _run_one(machine, (Op.SW, 7), (Op.LR, 0),
                                  (Op.LW, 0))
    assert adapter.reserved == [Op.LR]
    assert [resp.value for resp in responses] == [0, 7, 7]


def test_op_outside_extra_ops_is_rejected_with_the_same_text(machine):
    with pytest.raises(ProtocolViolation) as info:
        _run_one(machine, (Op.SC, 1))
    assert str(info.value) == "bank 3: op sc unsupported by _RecordingAdapter"


def test_unmapped_op_is_rejected_with_the_same_text(probe):
    machine = probe(_MappedAdapter)
    with pytest.raises(ProtocolViolation) as info:
        _run_one(machine, (Op.LRWAIT, 0))
    assert str(info.value) == "bank 3: op lrwait unsupported by _MappedAdapter"


def test_handle_reserved_override_gets_the_ops_its_parent_maps(probe):
    """``examples/custom_variant.py``'s plug-in shape: override only
    ``handle_reserved`` of a class that maps LR/SC, call ``super()``."""
    machine = probe(_ReservedOverride)
    adapter, responses = _run_one(machine, (Op.LR, 0), (Op.SC, 5),
                                  (Op.SC, 6), (Op.LW, 0))
    assert adapter.reserved == [Op.LR, Op.SC, Op.SC]
    assert [resp.status for resp in responses[1:3]] == [Status.OK,
                                                       Status.SC_FAIL]
    assert responses[3].value == 5


def test_handle_override_gets_every_op(probe):
    machine = probe(_HandleOverride)
    adapter, responses = _run_one(machine, (Op.SW, 3), (Op.LR, 0),
                                  (Op.SC, 4), (Op.LW, 0))
    assert adapter.handled == [Op.SW, Op.LR, Op.SC, Op.LW]
    assert responses[2].status is Status.OK and responses[3].value == 4


def test_every_bank_shares_the_per_class_table(machine):
    """Built once per class, never per adapter: a 256-core machine
    builds 1024 adapters, and a per-instance table showed up as
    machine-build time."""
    tables = {id(bank.adapter._SERVE) for bank in machine.banks}
    assert tables == {id(_RecordingAdapter._SERVE)}
    assert all("_SERVE" not in vars(bank.adapter)
               for bank in machine.banks)
    assert _RecordingAdapter._SERVE is not AtomicAdapter._SERVE


def test_tables_are_built_when_the_class_is_and_only_then(monkeypatch):
    built = []
    original = adapter_module._build_tables
    monkeypatch.setattr(adapter_module, "_build_tables",
                        lambda cls: built.append(cls) or original(cls))

    class _Once(AmoAdapter):
        pass

    assert built == [_Once]
    config = SystemConfig(num_cores=4, cores_per_tile=4, num_groups=1)
    machine = Machine(config, VariantSpec.amo())
    assert len([bank.adapter for bank in machine.banks]) == 16
    assert built == [_Once]


def test_capability_flags_match_every_registered_adapter():
    """``supports_lrsc``/``supports_wait`` say which ops the variant's
    adapter accepts, so a workload can reject an unrunnable method
    before simulating."""
    config = SystemConfig(num_cores=4, cores_per_tile=4, num_groups=1)
    for name, plugin in list_variants():
        variant = VariantSpec(name, params=plugin.listing_params())
        table = type(Machine(config, variant).banks[0].adapter)._DISPATCH

        def accepts(*ops):
            return all(table[op.index] is not adapter_module._unsupported
                       for op in ops)

        assert accepts(Op.LR, Op.SC) == plugin.supports_lrsc, name
        assert accepts(Op.LRWAIT, Op.SCWAIT, Op.MWAIT) == \
            plugin.supports_wait, name
