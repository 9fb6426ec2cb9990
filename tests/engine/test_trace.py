"""Unit tests for the tracer."""

from repro.telemetry.trace import Tracer


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.log(1, "bank0", "lrwait", "core 3")
    assert tracer.records == []


def test_enabled_tracer_records():
    tracer = Tracer(enabled=True)
    tracer.log(1, "bank0", "lrwait", "core 3")
    tracer.log(2, "qnode3", "wakeup", "succ 4")
    assert len(tracer.records) == 2
    assert tracer.records[0].cycle == 1
    assert tracer.records[1].kind == "wakeup"


def test_kind_whitelist():
    tracer = Tracer(enabled=True, kinds={"wakeup"})
    tracer.log(1, "bank0", "lrwait")
    tracer.log(2, "qnode1", "wakeup")
    assert [r.kind for r in tracer.records] == ["wakeup"]


def test_filter_by_kind_and_source():
    tracer = Tracer(enabled=True)
    tracer.log(1, "bank0", "lrwait")
    tracer.log(2, "bank1", "lrwait")
    tracer.log(3, "bank0", "scwait")
    assert len(list(tracer.filter(kind="lrwait"))) == 2
    assert len(list(tracer.filter(source="bank0"))) == 2
    assert len(list(tracer.filter(kind="scwait", source="bank0"))) == 1


def test_render_and_clear():
    tracer = Tracer(enabled=True)
    tracer.log(7, "bank0", "lrwait", "core 1")
    text = tracer.render()
    assert "bank0" in text and "lrwait" in text
    tracer.clear()
    assert tracer.records == []
    assert tracer.render() == ""
