"""The one artifact validator: telemetry reports through ``repro.obs``."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.dse import schema as dse_schema
from repro.engine.errors import ConfigError
from repro.obs import SchemaError, render_summary
from repro.obs.schema import main as schema_main
from repro.scenarios import default_spec, run_scenario
from repro.telemetry import SchemaError as TelemetrySchemaError
from repro.telemetry import validate_report

BUILTINS = ["bank_contention", "core_timeline", "queue_occupancy",
            "message_latency"]

#: (probe, dotted path to a container, corrupt value) — each one a
#: non-dict where the schema expects a dict.
CORRUPT = [
    ("bank_contention", "banks", [1]),
    ("core_timeline", "cores", [1]),
    ("queue_occupancy", "banks", [None]),
    ("message_latency", "round_trip", {"lw": 3}),
]


@pytest.fixture(scope="module")
def report():
    spec = default_spec("histogram", num_cores=8, seed=3).with_params(
        bins=2, updates_per_core=2)
    return json.loads(run_scenario(spec, probes=BUILTINS).telemetry
                      .to_json())


def _corrupt(report, probe, key, value):
    data = json.loads(json.dumps(report))
    data["probes"][probe][key] = value
    return data


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_schema_error_is_one_class():
    assert TelemetrySchemaError is SchemaError
    assert dse_schema.SchemaError is SchemaError


def test_cli_validates_a_report(report, tmp_path, capsys):
    path = _write(tmp_path, "telemetry.json", report)
    assert schema_main([path]) == 0
    out = capsys.readouterr().out
    assert f"schema: {path}: ok (report: {', '.join(sorted(BUILTINS))})" \
        in out


def test_cli_rejects_a_corrupt_report(report, tmp_path, capsys):
    bad = dict(report, cycles="many")
    assert schema_main([_write(tmp_path, "bad.json", bad)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("schema: ") and "'cycles' must be" in out


@pytest.mark.parametrize("probe, key, value", CORRUPT,
                         ids=[probe for probe, _key, _value in CORRUPT])
def test_non_dict_containers_are_schema_errors(report, tmp_path, capsys,
                                               probe, key, value):
    data = _corrupt(report, probe, key, value)
    with pytest.raises(SchemaError, match="must be a dict, got"):
        validate_report(data)
    assert schema_main([_write(tmp_path, "bad.json", data)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("schema: ") and "must be a dict" in out


def test_module_entry_point_never_prints_a_traceback(report, tmp_path):
    path = _write(tmp_path, "bad.json", _corrupt(report, *CORRUPT[0]))
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "repro.obs", path],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert "Traceback" not in done.stdout + done.stderr
    assert done.stdout.startswith(f"schema: {path}: ")


def test_obs_summary_refuses_a_report(report, tmp_path):
    path = _write(tmp_path, "telemetry.json", report)
    with pytest.raises(ConfigError, match="is a telemetry report"):
        render_summary(path)
