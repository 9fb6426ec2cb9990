"""Unit tests for message types and op classifications."""

from repro.interconnect.messages import (
    AMO_OPS,
    MemRequest,
    Op,
    WAIT_OPS,
    WRITE_OPS,
)


def test_write_ops_contains_all_stores():
    assert Op.SW in WRITE_OPS
    assert Op.SC in WRITE_OPS
    assert Op.SCWAIT in WRITE_OPS
    for op in AMO_OPS:
        assert op in WRITE_OPS


def test_reads_are_not_write_ops():
    for op in (Op.LW, Op.LR, Op.LRWAIT, Op.MWAIT):
        assert op not in WRITE_OPS


def test_wait_ops_are_exactly_the_withheld_ones():
    assert WAIT_OPS == {Op.LRWAIT, Op.MWAIT}


def test_request_ids_are_unique():
    a = MemRequest(op=Op.LW, core_id=0, addr=0)
    b = MemRequest(op=Op.LW, core_id=0, addr=0)
    assert a.req_id != b.req_id


def test_request_str_is_informative():
    req = MemRequest(op=Op.SCWAIT, core_id=3, addr=0x40, value=9)
    text = str(req)
    assert "scwait" in text and "core=3" in text and "0x40" in text


def test_precomputed_op_attributes_match_the_op_sets():
    for op in Op:
        assert op.mnemonic == op.value
        assert op.resp_mnemonic == "resp_" + op.value
        assert op.is_wait is (op in WAIT_OPS)
        assert op.is_amo is (op in AMO_OPS)
        assert op.is_sc is (op in (Op.SC, Op.SCWAIT))
