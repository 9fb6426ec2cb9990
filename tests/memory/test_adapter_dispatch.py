"""The adapter dispatch contract, through a variant registered here.

:meth:`AtomicAdapter.handle` serves LW/SW/AMO itself and routes the
ops of :attr:`~AtomicAdapter.EXTRA_OPS` to ``handle_reserved`` through
a table derived once per adapter class.  A throwaway variant with its
own adapter checks that contract end to end; it is unregistered again
after each test.
"""

import pytest

from repro.arch.config import SystemConfig
from repro.cores.api import MemCmd
from repro.engine.errors import ProtocolViolation
from repro.interconnect.messages import Op
from repro.machine import Machine
from repro.memory.adapter import AtomicAdapter
from repro.memory.variants import (
    AtomicVariant,
    VariantSpec,
    list_variants,
    register_variant,
    unregister_variant,
)


class _RecordingAdapter(AtomicAdapter):
    """Accepts LR beyond the base ops and records what reaches it."""

    EXTRA_OPS = frozenset({Op.LR})

    def __init__(self, controller) -> None:
        super().__init__(controller)
        self.reserved: list = []

    def handle_reserved(self, req) -> None:
        self.reserved.append(req.op)
        self.ctrl.respond(req, value=self.ctrl.read(req.addr))


@pytest.fixture
def machine():
    @register_variant("dispatch_probe")
    class DispatchProbeVariant(AtomicVariant):
        """A dispatch-contract test variant."""

        description = "records reservation-family ops"

        def make_adapter(self, controller, params, num_cores, strict):
            return _RecordingAdapter(controller)

    try:
        yield Machine(SystemConfig(num_cores=16),
                      VariantSpec("dispatch_probe"))
    finally:
        unregister_variant("dispatch_probe")


def _run_one(machine, *ops):
    addr = machine.allocator.alloc_in_bank(3, 1)

    def kernel(api):
        for op, value in ops:
            yield MemCmd(op, addr, value)

    machine.load(0, kernel)
    machine.run()
    return machine.banks[3].adapter


def test_extra_ops_reach_handle_reserved_and_base_ops_do_not(machine):
    adapter = _run_one(machine, (Op.SW, 7), (Op.LR, 0), (Op.LW, 0))
    assert adapter.reserved == [Op.LR]
    assert machine.stats.cores[0].requests == {"sw": 1, "lr": 1, "lw": 1}


def test_op_outside_extra_ops_is_rejected_with_the_same_text(machine):
    with pytest.raises(ProtocolViolation) as info:
        _run_one(machine, (Op.SC, 1))
    assert str(info.value) == "bank 3: op sc unsupported by _RecordingAdapter"


def test_every_bank_shares_the_per_class_table(machine):
    """Built once per class, never per adapter: a 256-core machine
    builds 1024 adapters, and a per-instance table showed up as
    machine-build time."""
    tables = {id(bank.adapter._OP_KINDS) for bank in machine.banks}
    assert tables == {id(_RecordingAdapter._OP_KINDS)}
    assert all("_OP_KINDS" not in vars(bank.adapter)
               for bank in machine.banks)
    assert _RecordingAdapter._OP_KINDS is not AtomicAdapter._OP_KINDS


def test_capability_flags_match_every_registered_adapter():
    """``supports_lrsc``/``supports_wait`` say which ops the variant's
    adapter accepts, so a workload can reject an unrunnable method
    before simulating."""
    config = SystemConfig(num_cores=4, cores_per_tile=4, num_groups=1)
    for name, plugin in list_variants():
        variant = VariantSpec(name, params=plugin.listing_params())
        kinds = Machine(config, variant).banks[0].adapter._OP_KINDS

        def accepts(*ops):
            return all(kinds[op.index] is not None for op in ops)

        assert accepts(Op.LR, Op.SC) == plugin.supports_lrsc, name
        assert accepts(Op.LRWAIT, Op.SCWAIT, Op.MWAIT) == \
            plugin.supports_wait, name
