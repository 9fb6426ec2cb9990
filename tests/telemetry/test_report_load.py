"""Loading a report validates it: malformed input is a SchemaError."""

import json

import pytest

from repro.engine.errors import ConfigError
from repro.telemetry import SchemaError, TelemetryReport

_VALID = {"version": 1, "cycles": 10, "num_cores": 4, "num_banks": 16,
          "variant": "colibri", "seed": 0, "probes": {}}


@pytest.mark.parametrize("data", [
    {"probes": {}},
    dict(_VALID, cycles="x", probes={"core_timeline": {}}),
    dict(_VALID, probes={"core_timeline": {}}),
], ids=["missing-fields", "bad-cycles-empty-section", "empty-section"])
def test_from_json_rejects_malformed_reports(data):
    with pytest.raises(SchemaError) as caught:
        TelemetryReport.from_json(json.dumps(data))
    assert isinstance(caught.value, ConfigError)
