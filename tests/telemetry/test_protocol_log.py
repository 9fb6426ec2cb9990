"""The protocol log (``Tracer``) as a telemetry probe.

``data/protocol_stream.json`` pins the full record stream — every
``(cycle, source, kind, detail)`` in order — and the VCD bytes of two
runs: the three-core Colibri Fig. 2 kernel of
``examples/protocol_trace.py`` and a 4-core ``lrscwait`` queue run.
Regenerate it only for a deliberate timing-model change::

    PYTHONPATH=src python tests/telemetry/test_protocol_log.py
"""

import json
import os

import pytest

from repro import Machine, SystemConfig, VariantSpec
from repro.scenarios import build_machine, default_spec, get_workload
from repro.telemetry import Probe, Tracer, list_probes
from repro.telemetry.vcd import write_vcd

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "protocol_stream.json")


def _colibri_fig2(attach):
    """Three staggered LRwait/SCwait contenders on one word (Fig. 2)."""
    tracer = Tracer(enabled=True)
    machine = Machine(SystemConfig.scaled(4), VariantSpec.colibri(), seed=0,
                      tracer=tracer if attach == "build" else None)
    if attach == "probe":
        machine.attach_probes([tracer])
    counter = machine.allocator.alloc_interleaved(1)

    def kernel(api):
        for _ in range(2):
            yield from api.compute(1 + api.core_id * 7)
            resp = yield from api.lrwait(counter)
            yield from api.compute(3)
            yield from api.scwait(counter, resp.value + 1)
            yield from api.retire()

    machine.load_range(range(3), kernel)
    machine.run()
    assert machine.peek(counter) == 6
    return tracer, machine


def _lrscwait_queue(attach):
    tracer = Tracer(enabled=True)
    spec = default_spec("queue", num_cores=4,
                        variant="lrscwait:4").with_params(ops_per_core=4)
    machine = build_machine(spec,
                            tracer=tracer if attach == "build" else None)
    if attach == "probe":
        machine.attach_probes([tracer])
    get_workload("queue").load(machine, spec)
    machine.run()
    return tracer, machine


RUNS = {"colibri_fig2": _colibri_fig2, "lrscwait_queue": _lrscwait_queue}


def _stream(name, attach, path):
    tracer, machine = RUNS[name](attach)
    write_vcd(tracer, machine.config, path)
    with open(path, "rb") as stream:
        vcd = stream.read()
    records = [[r.cycle, r.source, r.kind, r.detail] for r in tracer.records]
    return records, vcd


@pytest.mark.parametrize("attach", ["build", "probe"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_record_stream_and_vcd_match_golden(name, attach, tmp_path):
    with open(GOLDEN) as stream:
        golden = json.load(stream)[name]
    records, vcd = _stream(name, attach, str(tmp_path / "run.vcd"))
    assert records == golden["records"]
    assert vcd == ("\n".join(golden["vcd"]) + "\n").encode()


def test_tracer_is_an_unregistered_probe():
    tracer = Tracer(enabled=True)
    assert isinstance(tracer, Probe)
    assert tracer.name == "protocol_log"
    assert "protocol_log" not in dict(list_probes())


def test_build_time_tracer_is_an_attached_probe():
    tracer = Tracer(enabled=True)
    machine = Machine(SystemConfig.scaled(4), VariantSpec.colibri(),
                      tracer=tracer)
    assert machine.probes == [tracer]
    for hook in ("core_state", "bank_service", "protocol"):
        assert machine.telemetry.subscribers(hook)


def test_unobserved_machine_has_no_protocol_subscriber():
    machine = Machine(SystemConfig.scaled(4), VariantSpec.colibri())
    assert machine.telemetry.on_protocol is None
    assert machine.telemetry.on_bank_service is None


def _regenerate() -> None:
    import tempfile
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            records, vcd = _stream(name, "build", os.path.join(tmp, "x.vcd"))
            golden[name] = {"records": records,
                            "vcd": vcd.decode().splitlines()}
    lines = ["{"]
    for index, name in enumerate(sorted(golden)):
        entry = golden[name]
        lines.append(f"  {json.dumps(name)}: {{")
        for key, close in (("records", "],"), ("vcd", "]")):
            lines.append(f'    "{key}": [')
            lines.append(",\n".join("      " + json.dumps(item)
                                    for item in entry[key]))
            lines.append("    " + close)
        lines.append("  }," if index < len(golden) - 1 else "  }")
    lines.append("}")
    with open(GOLDEN, "w") as stream:
        stream.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    _regenerate()
