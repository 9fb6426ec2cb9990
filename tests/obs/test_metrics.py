"""MetricsRegistry: counters, gauges, timers, histograms."""

from repro.obs import MetricsRegistry


def test_counters_accumulate():
    metrics = MetricsRegistry()
    metrics.inc("cache.hit")
    metrics.inc("cache.hit")
    metrics.inc("cache.miss", 3)
    assert metrics.counters == {"cache.hit": 2, "cache.miss": 3}


def test_gauges_last_write_wins():
    metrics = MetricsRegistry()
    metrics.gauge("budget", 10)
    metrics.gauge("budget", 7)
    assert metrics.gauges == {"budget": 7}


def test_timers_track_count_total_min_max():
    metrics = MetricsRegistry()
    for seconds in (0.2, 0.1, 0.4):
        metrics.observe("span.point", seconds)
    timer = metrics.timers["span.point"]
    assert timer["count"] == 3
    assert abs(timer["total_s"] - 0.7) < 1e-9
    assert timer["min_s"] == 0.1
    assert timer["max_s"] == 0.4


def test_snapshot_is_detached():
    metrics = MetricsRegistry()
    metrics.inc("n")
    metrics.observe("t", 0.1)
    snap = metrics.snapshot()
    metrics.inc("n")
    metrics.observe("t", 0.2)
    assert snap["counters"] == {"n": 1}
    assert snap["timers"]["t"]["count"] == 1


def test_clear():
    metrics = MetricsRegistry()
    metrics.inc("n")
    metrics.gauge("g", 1)
    metrics.observe("t", 0.1)
    metrics.clear()
    assert metrics.snapshot() == {"counters": {}, "gauges": {},
                                  "timers": {}, "histograms": {}}


def test_histogram_quantiles_bracket_observations():
    from repro.obs import Histogram
    histogram = Histogram()
    for ms in (1, 2, 4, 8, 100):
        histogram.observe(ms / 1000.0)
    # Power-of-two buckets: each quantile reports its bucket's upper
    # bound — at least the true value, at most 2x it.
    assert 0.004 <= histogram.quantile(0.5) < 0.008
    assert 0.1 <= histogram.quantile(0.99) < 0.2
    assert histogram.count == 5
    assert abs(histogram.total_s - 0.115) < 1e-9


def test_histogram_empty_and_zero():
    from repro.obs import Histogram
    histogram = Histogram()
    assert histogram.quantile(0.5) == 0.0
    assert histogram.summary()["count"] == 0
    histogram.observe(0.0)
    assert histogram.quantile(0.5) == 0.0  # bucket 0 upper bound


def test_histogram_summary_keys_are_json_scalars():
    import json
    from repro.obs import Histogram
    histogram = Histogram()
    histogram.observe(0.25)
    summary = histogram.summary()
    assert set(summary) == {"count", "total_s", "mean_s", "p50_s",
                            "p90_s", "p99_s"}
    json.dumps(summary)
    assert summary["p50_s"] <= summary["p90_s"] <= summary["p99_s"]


def test_histogram_to_dict_trims_and_round_trips():
    from repro.obs import Histogram
    histogram = Histogram()
    histogram.observe(0.001)
    data = histogram.to_dict()
    assert len(data["buckets"]) < Histogram.BUCKETS  # tail trimmed
    clone = Histogram.from_dict(data)
    assert clone.count == histogram.count
    assert clone.quantile(0.5) == histogram.quantile(0.5)


def test_histogram_merge_is_additive():
    from repro.obs import Histogram
    ours = Histogram()
    theirs = Histogram()
    for ms in (1, 2):
        ours.observe(ms / 1000.0)
    for ms in (400, 800):
        theirs.observe(ms / 1000.0)
    ours.merge_dict(theirs.to_dict())
    assert ours.count == 4
    assert ours.quantile(0.99) >= 0.4


def test_registry_histo_snapshot():
    metrics = MetricsRegistry()
    metrics.histo("span.point", 0.002)
    metrics.histo("span.point", 0.004)
    snap = metrics.snapshot()
    assert snap["histograms"]["span.point"]["count"] == 2
    assert metrics.histograms["span.point"].count == 2
