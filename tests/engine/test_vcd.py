"""Tests for VCD trace export."""

import io

import pytest

from repro import Machine, SystemConfig, VariantSpec
from repro.telemetry.trace import Tracer
from repro.telemetry.vcd import VcdWriter, write_vcd, _identifier

from ..conftest import increment_kernel_wait


def test_identifier_codes_unique_and_printable():
    codes = [_identifier(i) for i in range(500)]
    assert len(set(codes)) == 500
    assert all(33 <= ord(ch) <= 126 for code in codes for ch in code)


def test_writer_header_and_changes():
    stream = io.StringIO()
    writer = VcdWriter(stream)
    code = writer.add_signal("cores", "core0")
    writer.change(0, code, "active")
    writer.change(5, code, "sleeping")
    writer.finalize(end_time=10)
    text = stream.getvalue()
    assert "$timescale 1ns $end" in text
    assert "$var string 1" in text and "core0" in text
    assert "#0" in text and "#5" in text and "#10" in text
    assert "sactive" in text and "ssleeping" in text


def test_writer_rejects_time_reversal():
    writer = VcdWriter(io.StringIO())
    code = writer.add_signal("s", "x")
    writer.change(5, code, "a")
    with pytest.raises(ValueError):
        writer.change(3, code, "b")


def test_writer_rejects_late_signal_add():
    writer = VcdWriter(io.StringIO())
    code = writer.add_signal("s", "x")
    writer.change(0, code, "a")
    with pytest.raises(ValueError):
        writer.add_signal("s", "y")


def test_write_vcd_from_real_run(tmp_path):
    tracer = Tracer(enabled=True)
    machine = Machine(SystemConfig.scaled(4), VariantSpec.colibri(),
                      seed=1, tracer=tracer)
    counter = machine.allocator.alloc_interleaved(1)
    machine.load_all(increment_kernel_wait(counter, 2))
    machine.run()
    path = str(tmp_path / "run.vcd")
    count = write_vcd(tracer, machine.config, path)
    assert count > 0
    with open(path) as handle:
        text = handle.read()
    assert "$scope module cores $end" in text
    assert "$scope module banks $end" in text
    assert "slrwait" in text
    assert "ssleeping" in text
    assert "sidle" in text


def test_write_vcd_from_telemetry_timeline(tmp_path):
    """Telemetry core-state spans export as VCD signals without a Tracer."""
    machine = Machine(SystemConfig.scaled(4), VariantSpec.colibri(), seed=1)
    counter = machine.allocator.alloc_interleaved(1)
    (timeline,) = machine.attach_probes(["core_timeline"])
    machine.load_all(increment_kernel_wait(counter, 2))
    machine.run()
    path = str(tmp_path / "timeline.vcd")
    count = write_vcd(None, machine.config, path,
                      core_states=timeline.spans())
    assert count > 0
    with open(path) as handle:
        text = handle.read()
    assert "$scope module cores $end" in text
    assert "banks" not in text  # telemetry-only dump has no bank signals
    assert "sactive" in text and "ssleeping" in text
    for core_id in range(4):
        assert f"core{core_id}" in text


def test_write_vcd_merges_tracer_and_telemetry(tmp_path):
    """Trace records and telemetry spans coexist; duplicate core-state
    changes collapse through the last-value filter."""
    tracer = Tracer(enabled=True)
    machine = Machine(SystemConfig.scaled(4), VariantSpec.colibri(),
                      seed=1, tracer=tracer)
    counter = machine.allocator.alloc_interleaved(1)
    (timeline,) = machine.attach_probes(["core_timeline"])
    machine.load_all(increment_kernel_wait(counter, 2))
    machine.run()
    merged = str(tmp_path / "merged.vcd")
    trace_only = str(tmp_path / "trace.vcd")
    merged_count = write_vcd(tracer, machine.config, merged,
                             core_states=timeline.spans())
    trace_count = write_vcd(tracer, machine.config, trace_only)
    # The telemetry spans mirror the traced transitions, so merging
    # them adds no spurious changes.
    assert merged_count == trace_count
    with open(merged) as handle:
        text = handle.read()
    assert "$scope module banks $end" in text


def test_write_vcd_empty_trace(tmp_path):
    tracer = Tracer(enabled=True)
    path = str(tmp_path / "empty.vcd")
    count = write_vcd(tracer, SystemConfig.scaled(4), path)
    assert count == 0
    with open(path) as handle:
        assert "$enddefinitions" in handle.read()
