"""Observed platform runs: jobs=1 == jobs=4, span containment, cache."""

from repro.eval.runner import ResultCache
from repro.obs import OBS, validate_trace
from repro.scenarios import default_spec, run_scenarios
from repro.scenarios.registry import get_workload
from repro.scenarios.run import apply_settings

#: Timestamp slack in microseconds (export rounds ts/dur to 3 decimals).
_EPS = 0.5


def smoke_spec(workload: str, **params):
    spec = apply_settings(default_spec(workload),
                          dict(get_workload(workload).smoke))
    if params:
        spec = spec.with_params(**params)
    spec.validate()
    return spec


def observed_run(specs, **kwargs):
    """Run scenarios under a fresh obs session; returns
    ``(results, trace document, metrics snapshot)``."""
    OBS.enable()
    try:
        results = run_scenarios(specs, **kwargs)
        return results, OBS.trace_document(), OBS.metrics.snapshot()
    finally:
        OBS.disable()


def check_partition(document):
    """Spans must partition the wall clock: no orphans, every child
    inside its parent, no sibling overlap within a lane."""
    validate_trace(document)      # includes the orphaned-parent check
    spans = [event for event in document["traceEvents"]
             if event["ph"] == "X"]
    by_id = {event["args"]["id"]: event for event in spans}
    for event in spans:
        parent_id = event["args"]["parent"]
        if parent_id is None:
            continue
        parent = by_id[parent_id]
        assert parent["ts"] - _EPS <= event["ts"], (event, parent)
        assert (event["ts"] + event["dur"]
                <= parent["ts"] + parent["dur"] + _EPS), (event, parent)
    siblings: dict = {}
    for event in spans:
        key = (event["tid"], event["args"]["parent"])
        siblings.setdefault(key, []).append(event)
    for group in siblings.values():
        group.sort(key=lambda event: event["ts"])
        for left, right in zip(group, group[1:]):
            assert left["ts"] + left["dur"] <= right["ts"] + _EPS, \
                (left, right)
    return spans


def test_jobs_1_and_jobs_4_identical_counter_totals_and_span_trees():
    specs = [smoke_spec("histogram", bins=bins) for bins in (1, 2, 4, 8)]
    serial_results, serial_doc, serial_snap = observed_run(specs, jobs=1)
    pool_results, pool_doc, pool_snap = observed_run(specs, jobs=4)

    assert pool_results == serial_results
    assert pool_snap["counters"] == serial_snap["counters"]
    assert ({name: timer["count"]
             for name, timer in pool_snap["timers"].items()}
            == {name: timer["count"]
                for name, timer in serial_snap["timers"].items()})

    serial_spans = check_partition(serial_doc)
    pool_spans = check_partition(pool_doc)
    # Same spans either way (wall-clock interleaving aside): one point
    # span per spec with the same phase children.
    assert (sorted((s["name"], s["cat"]) for s in serial_spans)
            == sorted((s["name"], s["cat"]) for s in pool_spans))
    points = [s for s in pool_spans if s["cat"] == "point"]
    assert len(points) == len(specs)
    # Serial stays on lane 0; every pooled point ran on a worker lane.
    assert {s["tid"] for s in serial_spans} == {0}
    assert 0 not in {s["tid"] for s in points}


def test_each_point_span_has_the_three_phase_children():
    specs = [smoke_spec("histogram", bins=bins) for bins in (2, 4)]
    _results, document, _snap = observed_run(specs, jobs=1)
    spans = check_partition(document)
    points = {s["args"]["id"]: s["name"]
              for s in spans if s["cat"] == "point"}
    children: dict = {}
    for span in spans:
        if span["cat"] == "phase" and span["args"]["parent"] in points:
            children.setdefault(span["args"]["parent"],
                                []).append(span["name"])
    assert all(names == ["build", "run", "collect-stats"]
               for names in children.values())
    assert len(children) == len(specs)


def test_cache_counters_roundtrip_and_sidecar_flush(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="test")
    specs = [smoke_spec("histogram", bins=bins) for bins in (2, 4)]
    OBS.enable()
    try:
        run_scenarios(specs, cache=cache)       # 2 misses, 2 stores
        run_scenarios(specs, cache=cache)       # 2 hits (early return)
        counters = dict(OBS.metrics.counters)
    finally:
        OBS.disable()
    assert counters["cache.miss"] == 2
    assert counters["cache.store"] == 2
    assert counters["cache.hit"] == 2
    # The runner flushed the sidecar: a fresh instance (fresh process,
    # as far as the sidecar cares) sees the lifetime totals.
    fresh = ResultCache(str(tmp_path), fingerprint="test")
    lifetime = fresh.lifetime_stats()
    assert lifetime["hits"] == 2
    assert lifetime["misses"] == 2
    assert lifetime["stores"] == 2
    assert lifetime["evictions"] == 0


def test_flush_counters_is_idempotent(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="test")
    cache.lookup_hash("0" * 64, None)           # miss
    cache.store_hash("0" * 64, {"x": 1})
    cache.flush_counters()
    cache.flush_counters()                      # no double counting
    cache.lookup_hash("0" * 64, None)           # hit
    cache.flush_counters()
    totals = ResultCache(str(tmp_path), fingerprint="test") \
        .lifetime_stats()
    assert totals["hits"] == 1
    assert totals["misses"] == 1
    assert totals["stores"] == 1


def test_counters_sidecar_survives_clear_and_prune(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="test")
    cache.lookup_hash("0" * 64, None)
    cache.store_hash("0" * 64, {"x": 1})
    cache.flush_counters()
    cache.clear()
    survivor = ResultCache(str(tmp_path), fingerprint="test")
    assert survivor.lifetime_stats()["stores"] == 1
    assert survivor.stats()["entries"] == 0


def test_disabled_session_records_nothing():
    # The default state: the records (possibly holding a previous
    # enabled session's data) must not grow while the session is off.
    assert not OBS.enabled
    spans_before = len(OBS.trace_document()["traceEvents"])
    counters_before = dict(OBS.metrics.counters)
    run_scenarios([smoke_spec("histogram", bins=2)])
    assert len(OBS.trace_document()["traceEvents"]) == spans_before
    assert OBS.metrics.counters == counters_before


def test_pooled_worker_spans_parent_under_the_span_open_at_pool_time():
    # Two successive pools inside two different open spans: the second
    # pool's workers may reuse the first pool's pids, so span ids must
    # stay unique per writer session and each worker's top-level
    # ``point`` span must hang under the span open when its pool ran.
    specs = [smoke_spec("histogram", bins=bins) for bins in (1, 2, 4)]
    OBS.enable()
    try:
        with OBS.span("first", cat="schedule"):
            run_scenarios(specs, jobs=2)
        with OBS.span("second", cat="schedule"):
            run_scenarios(specs, jobs=2)
        document = OBS.trace_document()
    finally:
        OBS.disable()
    spans = check_partition(document)
    ids = [span["args"]["id"] for span in spans]
    assert len(ids) == len(set(ids))
    outer = {span["name"]: span["args"]["id"] for span in spans
             if span["cat"] == "schedule"}
    by_id = {span["args"]["id"]: span for span in spans}
    points = [span for span in spans if span["cat"] == "point"]
    assert len(points) == 2 * len(specs)
    for point in points:
        assert point["tid"] != 0
        parent = by_id[point["args"]["parent"]]
        assert parent["cat"] == "schedule"
        # The pool ran while its parent span was open.
        assert parent["ts"] - _EPS <= point["ts"]
    assert sorted(by_id[point["args"]["parent"]]["name"]
                  for point in points) == ["first"] * 3 + ["second"] * 3
    assert set(outer) == {"first", "second"}
