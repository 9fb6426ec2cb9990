"""Unit tests for the centralized LRSCwait_q adapter."""

import pytest

from repro.engine.errors import ProtocolViolation
from repro.interconnect.messages import Op, Status
from repro.memory.lrscwait import LrscWaitAdapter

from .fake_controller import FakeController, request


def make(queue_slots=None, strict=True):
    ctrl = FakeController()
    adapter = LrscWaitAdapter(ctrl, queue_slots=queue_slots, strict=strict)
    return ctrl, adapter


def test_first_lrwait_served_immediately():
    ctrl, adapter = make()
    ctrl.write(0, 11)
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    resp = ctrl.pop_response()
    assert resp.value == 11 and resp.status is Status.OK


def test_second_lrwait_withheld_until_scwait():
    ctrl, adapter = make()
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    adapter.handle(request(Op.LRWAIT, core=1, addr=0))
    assert len(ctrl.responses) == 1  # core 1 still sleeping
    adapter.handle(request(Op.SCWAIT, core=0, addr=0, value=7))
    # Now: SCwait OK response + core 1's LRwait response with value 7.
    statuses = [(r.op, r.status, r.value) for r in ctrl.responses[1:]]
    assert (Op.SCWAIT, Status.OK, 0) in statuses
    assert (Op.LRWAIT, Status.OK, 7) in statuses


def test_fifo_service_order():
    ctrl, adapter = make()
    for core in range(4):
        adapter.handle(request(Op.LRWAIT, core=core, addr=0))
    served = [r.core_id for r in ctrl.responses if r.op is Op.LRWAIT]
    assert served == [0]
    for core in range(3):
        adapter.handle(request(Op.SCWAIT, core=core, addr=0, value=core))
    served = [r.core_id for r in ctrl.responses if r.op is Op.LRWAIT]
    assert served == [0, 1, 2, 3]  # strict FIFO — starvation freedom


def test_queue_full_rejects_immediately():
    ctrl, adapter = make(queue_slots=2)
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    adapter.handle(request(Op.LRWAIT, core=1, addr=0))
    adapter.handle(request(Op.LRWAIT, core=2, addr=0))
    resp = ctrl.last_response()
    assert resp.core_id == 2 and resp.status is Status.QUEUE_FULL
    assert adapter.pending_waiters() == 2


def test_slot_freed_after_scwait():
    ctrl, adapter = make(queue_slots=1)
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    adapter.handle(request(Op.SCWAIT, core=0, addr=0, value=1))
    adapter.handle(request(Op.LRWAIT, core=1, addr=0))
    assert ctrl.last_response().status is Status.OK
    assert ctrl.last_response().value == 1


def test_interfering_store_fails_head_scwait():
    ctrl, adapter = make()
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    adapter.handle(request(Op.SW, core=1, addr=0, value=50))
    ctrl.responses.clear()
    adapter.handle(request(Op.SCWAIT, core=0, addr=0, value=1))
    assert ctrl.pop_response().status is Status.SC_FAIL
    assert ctrl.read(0) == 50  # failed SCwait writes nothing


def test_next_head_served_fresh_value_after_failed_scwait():
    ctrl, adapter = make()
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    adapter.handle(request(Op.LRWAIT, core=1, addr=0))
    adapter.handle(request(Op.SW, core=2, addr=0, value=50))
    adapter.handle(request(Op.SCWAIT, core=0, addr=0, value=1))
    lrwait_responses = [r for r in ctrl.responses if r.op is Op.LRWAIT]
    assert lrwait_responses[-1].core_id == 1
    assert lrwait_responses[-1].value == 50


def test_scwait_from_non_head_raises_in_strict_mode():
    ctrl, adapter = make()
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    with pytest.raises(ProtocolViolation):
        adapter.handle(request(Op.SCWAIT, core=1, addr=0, value=1))


def test_scwait_from_non_head_fails_in_permissive_mode():
    ctrl, adapter = make(strict=False)
    adapter.handle(request(Op.SCWAIT, core=1, addr=0, value=1))
    assert ctrl.pop_response().status is Status.SC_FAIL


def test_double_lrwait_same_core_raises():
    ctrl, adapter = make()
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    with pytest.raises(ProtocolViolation):
        adapter.handle(request(Op.LRWAIT, core=0, addr=0))


def test_double_wait_from_mid_queue_core_raises():
    ctrl, adapter = make()
    for core in range(3):
        adapter.handle(request(Op.LRWAIT, core=core, addr=0))
    with pytest.raises(ProtocolViolation, match="core 1 has two outstanding"
                       " wait ops on 0x0"):
        adapter.handle(request(Op.MWAIT, core=1, addr=0, expected=0))
    # The same core may wait on another address meanwhile.
    adapter.handle(request(Op.LRWAIT, core=1, addr=4))
    assert adapter.queue_depth(0) == 3 and adapter.queue_depth(4) == 1


def test_popped_core_may_wait_again():
    ctrl, adapter = make()
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    adapter.handle(request(Op.LRWAIT, core=1, addr=0))
    adapter.handle(request(Op.SCWAIT, core=0, addr=0, value=1))
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))   # no stale entry
    adapter.handle(request(Op.SCWAIT, core=1, addr=0, value=2))
    adapter.handle(request(Op.SCWAIT, core=0, addr=0, value=3))
    adapter.handle(request(Op.LRWAIT, core=1, addr=0))
    assert ctrl.read(0) == 3
    assert adapter.pending_waiters() == 1


def test_permissive_mode_admits_duplicate_waiters():
    ctrl, adapter = make(strict=False)
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    assert adapter.queue_depth(0) == 2


def test_plain_lr_rejected():
    ctrl, adapter = make()
    with pytest.raises(ProtocolViolation):
        adapter.handle(request(Op.LR, core=0, addr=0))


# -- Mwait -----------------------------------------------------------------------

def test_mwait_completes_immediately_on_mismatch():
    ctrl, adapter = make()
    ctrl.write(0, 3)
    adapter.handle(request(Op.MWAIT, core=0, addr=0, expected=7))
    resp = ctrl.pop_response()
    assert resp.value == 3 and resp.status is Status.OK
    assert adapter.pending_waiters() == 0


def test_mwait_monitors_until_write():
    ctrl, adapter = make()
    ctrl.write(0, 7)
    adapter.handle(request(Op.MWAIT, core=0, addr=0, expected=7))
    assert ctrl.responses == []  # sleeping
    adapter.handle(request(Op.SW, core=1, addr=0, value=8))
    mwait = [r for r in ctrl.responses if r.op is Op.MWAIT]
    assert mwait and mwait[0].value == 8


def test_mwait_chain_cascades_on_one_write():
    ctrl, adapter = make()
    ctrl.write(0, 0)
    for core in range(3):
        adapter.handle(request(Op.MWAIT, core=core, addr=0, expected=0))
    assert ctrl.responses == []
    adapter.handle(request(Op.SW, core=9, addr=0, value=1))
    woken = [r.core_id for r in ctrl.responses if r.op is Op.MWAIT]
    assert woken == [0, 1, 2]
    assert adapter.pending_waiters() == 0


def test_mwait_behind_lrwait_served_after_scwait():
    ctrl, adapter = make()
    ctrl.write(0, 0)
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    adapter.handle(request(Op.MWAIT, core=1, addr=0, expected=0))
    adapter.handle(request(Op.SCWAIT, core=0, addr=0, value=5))
    mwait = [r for r in ctrl.responses if r.op is Op.MWAIT]
    # The SCwait changed the value, so the Mwait completes on serve.
    assert mwait and mwait[0].core_id == 1 and mwait[0].value == 5


def test_queue_depth_introspection():
    ctrl, adapter = make()
    adapter.handle(request(Op.LRWAIT, core=0, addr=0))
    adapter.handle(request(Op.LRWAIT, core=1, addr=0))
    adapter.handle(request(Op.LRWAIT, core=2, addr=4))
    assert adapter.queue_depth(0) == 2
    assert adapter.queue_depth(4) == 1
    assert adapter.queue_depth(8) == 0
    assert adapter.pending_waiters() == 3
