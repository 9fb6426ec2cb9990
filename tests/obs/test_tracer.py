"""ObsSession span handles: nesting, null path, force-close, lanes."""

import os

from repro.obs import ObsSession
from repro.obs.session import _NULL_SPAN, fold_records


def _spans(session):
    return [event for event in session.trace_document()["traceEvents"]
            if event["ph"] == "X"]


def test_spans_nest_and_record_parentage():
    session = ObsSession()
    session.enable()
    with session.span("campaign", cat="campaign") as outer:
        with session.span("point", cat="point", bins=4) as inner:
            assert session.current == inner
        assert session.current == outer
    assert session.current is None
    by_name = {span["name"]: span for span in _spans(session)}
    assert set(by_name) == {"point", "campaign"}
    assert (by_name["point"]["args"]["parent"]
            == by_name["campaign"]["args"]["id"])
    assert by_name["campaign"]["args"]["parent"] is None
    assert by_name["point"]["args"]["bins"] == 4
    assert all(span["dur"] >= 0 for span in by_name.values())


def test_out_of_order_end_force_closes_inner_spans():
    # An exception unwinding past inner spans closes them all at the
    # same instant -- the records never hold a torn stack.
    session = ObsSession()
    session.enable()
    outer = session.span("outer", cat="phase")
    outer.__enter__()
    session.span("inner", cat="phase").__enter__()
    outer.__exit__(None, None, None)
    assert session.current is None
    spans = {span["name"]: span for span in _spans(session)}
    assert len(spans) == 2
    inner_end = spans["inner"]["ts"] + spans["inner"]["dur"]
    outer_end = spans["outer"]["ts"] + spans["outer"]["dur"]
    assert abs(inner_end - outer_end) < 0.01


def test_ids_are_unique_and_monotonic():
    session = ObsSession()
    session.enable()
    handles = [session.span(f"s{i}", cat="phase") for i in range(4)]
    for handle in handles:
        handle.__enter__()
    for handle in reversed(handles):
        handle.__exit__(None, None, None)
    ids = {span["name"]: span["args"]["id"] for span in _spans(session)}
    assert [ids[f"s{i}"] for i in range(4)] == [0, 1, 2, 3]


def test_disabled_session_returns_shared_null_span():
    session = ObsSession()
    assert session.span("anything", cat="point", bins=4) is _NULL_SPAN
    with session.span("anything") as span:
        assert span is None
    assert _spans(session) == []


def test_session_span_feeds_cat_timer():
    session = ObsSession()
    session.enable()
    with session.span("build", cat="phase"):
        pass
    with session.span("p0", cat="point"):
        pass
    with session.span("p1", cat="point"):
        pass
    session.disable()
    assert session.metrics.timers["span.phase"]["count"] == 1
    assert session.metrics.timers["span.point"]["count"] == 2


def test_enable_drops_previous_recording():
    session = ObsSession()
    session.enable()
    with session.span("stale"):
        pass
    session.inc("stale.counter")
    session.enable()
    assert _spans(session) == []
    assert session.metrics.counters == {}


def test_private_log_is_deleted_at_next_enable_and_kept_after_disable():
    session = ObsSession()
    session.enable()
    first = session.events.path
    with session.span("kept"):
        pass
    session.disable()
    assert session.events is None
    assert [span["name"] for span in _spans(session)] == ["kept"]
    session.enable()
    assert session.events.path != first
    assert not os.path.exists(first)


def test_worker_lanes_follow_first_appearance():
    # Records from other processes land on lanes 1, 2, ... in the order
    # of their first span; the folding process is lane 0.
    def span(pid, name, t):
        return [{"event": "span_begin", "pid": pid, "span": name,
                 "parent": None, "name": name, "cat": "point", "t": t,
                 "args": {}},
                {"event": "span_end", "pid": pid, "span": name,
                 "t": t + 1.0}]

    records = (span(222, "a", 0.0) + span(7, "main", 0.5)
               + span(111, "b", 1.0) + span(222, "c", 2.0))
    spans, _metrics = fold_records(records, main_pid=7)
    lanes = {event["name"]: event["tid"] for event in spans}
    assert lanes == {"a": 1, "main": 0, "b": 2, "c": 1}


def test_span_ids_stay_unique_when_a_pid_writes_two_sessions():
    # Pool workers of successive pools can share a pid.  Two writer
    # sessions from one pid, both counting spans from 0, must still
    # fold to distinct spans under the span open when they ran.
    session = ObsSession()
    session.enable()
    with session.span("schedule-batch", cat="schedule") as open_span:
        for _pool in range(2):
            worker = ObsSession()
            worker.enter_worker(True, open_span)
            worker.open_events(session.events.path, heartbeat=False)
            with worker.span("point", cat="point"):
                pass
            worker.close_events()
    spans = _spans(session)
    ids = [span["args"]["id"] for span in spans]
    assert len(ids) == len(set(ids)) == 3
    parent = [span for span in spans if span["cat"] == "schedule"][0]
    assert [span["args"]["parent"] for span in spans
            if span["cat"] == "point"] == [parent["args"]["id"]] * 2
