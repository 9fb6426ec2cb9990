"""Tests for the shared histogram experiment harness."""

import pytest

from repro.eval.harness import (
    FIG3_SERIES,
    FIG4_SERIES,
    SeriesSpec,
    TABLE2_SERIES,
    histogram_spec,
    run_bin_sweep,
)
from repro.memory.variants import VariantSpec
from repro.scenarios import run_scenario
from repro.sync.locks import AmoSpinLock, MwaitMcsLock


def test_series_variant_materialization():
    ideal = SeriesSpec("x", "lrscwait", "wait", queue_slots=None)
    assert ideal.variant(64).queue_slots is None
    half = SeriesSpec("x", "lrscwait", "wait", queue_slots="half")
    assert half.variant(64).queue_slots == 32
    fixed = SeriesSpec("x", "lrscwait", "wait", queue_slots=4)
    assert fixed.variant(64).queue_slots == 4
    assert SeriesSpec("x", "colibri", "wait").variant(8).kind == "colibri"
    assert SeriesSpec("x", "amo", "amo").variant(8) == VariantSpec.amo()


def test_series_lock_class_mapping():
    spec = SeriesSpec("x", "amo", "lock", lock="amo")
    assert spec.lock_class() is AmoSpinLock
    spec = SeriesSpec("x", "colibri", "lock", lock="mcs")
    assert spec.lock_class() is MwaitMcsLock


def test_legends_match_paper():
    assert [s.label for s in FIG3_SERIES] == [
        "Atomic Add", "LRSCwait_ideal", "LRSCwait_half", "LRSCwait_1",
        "Colibri", "LRSC"]
    assert [s.label for s in FIG4_SERIES] == [
        "Colibri", "Colibri lock", "Mwait lock", "LRSC", "LRSC lock",
        "Atomic Add lock"]
    assert [s.label for s in TABLE2_SERIES] == [
        "Atomic Add", "Colibri", "LRSC", "Atomic Add lock"]


def _point(series, num_cores, num_bins, updates_per_core):
    return run_scenario(histogram_spec(series, num_cores, num_bins,
                                       updates_per_core)).point


def test_run_histogram_point_verifies_and_measures():
    spec = SeriesSpec("Colibri", "colibri", "wait")
    point = _point(spec, num_cores=8, num_bins=2, updates_per_core=4)
    assert point.throughput > 0
    assert point.cycles > 0
    assert point.energy.ops == 32
    assert point.label == "Colibri"


def test_run_histogram_point_lock_series():
    spec = SeriesSpec("Atomic Add lock", "amo", "lock", lock="amo")
    point = _point(spec, num_cores=8, num_bins=2, updates_per_core=4)
    assert point.throughput > 0


def test_sweep_bins_shape():
    series = [SeriesSpec("Atomic Add", "amo", "amo")]
    result = run_bin_sweep("fig3", "sweep", lambda result: {}, series,
                           num_cores=8, bins_list=[1, 4],
                           updates_per_core=3, seed=0, jobs=1, cache=None)
    assert list(result.points) == ["Atomic Add"]
    assert result.bins == [1, 4]
    assert [p.num_bins for p in result.points["Atomic Add"]] == [1, 4]


def test_throughput_monotone_in_bins_for_amo():
    """Lower contention cannot hurt the AMO roofline."""
    spec = SeriesSpec("Atomic Add", "amo", "amo")
    low = _point(spec, 16, 1, 6)
    high = _point(spec, 16, 64, 6)
    assert high.throughput > low.throughput
