"""Trace export + schema validation, accept and reject paths."""

import copy
import json

import pytest

from repro.obs import ObsSession, SchemaError, validate_trace
from repro.obs.schema import main as schema_main


def _session_with_spans():
    session = ObsSession()
    session.enable()
    with session.span("campaign", cat="campaign"):
        with session.span("point", cat="point", bins=4):
            with session.span("run", cat="phase"):
                pass
    session.inc("cache.miss")
    session.gauge("campaign.budget_remaining", 3)
    session.disable()
    return session


def test_exported_trace_validates(tmp_path):
    session = _session_with_spans()
    path = session.export_chrome_trace(str(tmp_path / "trace.json"))
    with open(path) as stream:
        data = json.load(stream)
    validate_trace(data)
    x_events = [e for e in data["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in x_events] == ["campaign", "point", "run"]
    assert x_events[1]["args"]["bins"] == 4
    assert data["otherData"]["counters"] == {"cache.miss": 1}
    assert data["otherData"]["timers"]["span.point"]["count"] == 1
    # ts/dur are microseconds relative to enable(): small and ordered.
    assert 0 <= x_events[0]["ts"] <= x_events[1]["ts"] <= x_events[2]["ts"]


def test_export_creates_parent_directories(tmp_path):
    session = _session_with_spans()
    path = str(tmp_path / "deep" / "dir" / "trace.json")
    assert session.export_chrome_trace(path) == path
    with open(path) as stream:
        validate_trace(json.load(stream))


def _valid_document():
    return _session_with_spans().trace_document()


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d.pop("traceEvents"), "missing key 'traceEvents'"),
    (lambda d: d["traceEvents"].append({"name": "x"}), "missing key"),
    (lambda d: d["traceEvents"][-1].update(ph="B"), "ph must be one of"),
    (lambda d: d["traceEvents"][-1].update(ts=-1.0), "ts must be >= 0"),
    (lambda d: d["traceEvents"][-1]["args"].pop("parent"),
     "missing key 'parent'"),
    (lambda d: d["traceEvents"][-1]["args"].update(parent="zero"),
     "parent must be a span id or null"),
    (lambda d: d["traceEvents"][-1]["args"].update(parent=999),
     "orphaned span"),
    (lambda d: d["traceEvents"][-1]["args"].update(
        id=d["traceEvents"][-2]["args"]["id"]), "duplicate span id"),
    (lambda d: d["traceEvents"][-1]["args"].update(
        parent=d["traceEvents"][-1]["args"]["id"]), "its own ancestor"),
    (lambda d: d["traceEvents"][-3]["args"].update(
        parent=d["traceEvents"][-2]["args"]["id"]), "parent cycle"),
    (lambda d: d["otherData"].update(counters={"n": 1.5}),
     "must be an int"),
    (lambda d: d["otherData"]["timers"]["span.point"].pop("total_s"),
     "missing key 'total_s'"),
    (lambda d: d["traceEvents"].append(
        {"name": "mystery", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "x"}}), "unknown metadata event"),
])
def test_validate_rejects_malformed_traces(mutate, match):
    document = copy.deepcopy(_valid_document())
    mutate(document)
    with pytest.raises(SchemaError, match=match):
        validate_trace(document)


def test_validate_accepts_trace_without_other_data():
    document = _valid_document()
    document.pop("otherData")
    validate_trace(document)


def test_schema_cli_ok_and_reject(tmp_path, capsys):
    session = _session_with_spans()
    good = session.export_chrome_trace(str(tmp_path / "good.json"))
    assert schema_main([good]) == 0
    out = capsys.readouterr().out
    assert "ok (trace: 3 spans, 1 counters)" in out

    bad = tmp_path / "bad.json"
    document = _valid_document()
    document["traceEvents"][-1]["args"]["parent"] = 999
    bad.write_text(json.dumps(document))
    assert schema_main([str(bad)]) == 2
    assert "orphaned span" in capsys.readouterr().out

    assert schema_main([str(tmp_path / "missing.json")]) == 2
    assert schema_main([]) == 2
