"""Fig. 3 — histogram throughput of LRSCwait implementations vs LRSC.

Paper setup: 256 cores, bins swept 1…1024, y = updates/cycle (log-log).
Series: Atomic Add (roofline), LRSCwait_ideal, LRSCwait_128, LRSCwait_1,
Colibri, LRSC.

Expected shape (paper §V-A):

* LRSCwait_ideal on top of the wait-family across all contentions;
* Colibri within a small penalty of ideal (extra node-update round
  trips) — 6.5× over LRSC at 1 bin, ~13 % at 1024 bins;
* bounded LRSCwait_q collapses once more than ``q`` cores contend;
* Atomic Add above everything (single-instruction roofline).

On scaled systems ``LRSCwait_128`` generalizes to ``q = cores/2``
(the paper's 128 is exactly half of 256).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scenarios.spec import ScenarioSpec
from .harness import FIG3_SERIES, histogram_spec, sweep_bins
from .reporting import render_series

#: Default bin sweep (paper: 1..1024; scaled runs cap at #banks).
FULL_BINS = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]

#: Approximate series read off the published Fig. 3 at the sweep's
#: extremes (updates/cycle at 1 bin and 1024 bins, 256 cores) — used
#: for shape comparison in EXPERIMENTS.md, not for exact matching.
PAPER_REFERENCE = {
    "Atomic Add": {"1": 0.30, "1024": 16.0},
    "LRSCwait_ideal": {"1": 0.14, "1024": 7.0},
    "LRSCwait_128": {"1": 0.05, "1024": 6.0},
    "LRSCwait_1": {"1": 0.05, "1024": 6.0},
    "Colibri": {"1": 0.13, "1024": 6.5},
    "LRSC": {"1": 0.02, "1024": 5.8},
}


@dataclass
class Fig3Result:
    """Measured Fig. 3 series."""

    num_cores: int
    bins: list
    points: dict  # label -> [HistogramPoint]

    def throughput_series(self) -> dict:
        """label -> [updates/cycle], aligned with ``bins``."""
        return {label: [p.throughput for p in pts]
                for label, pts in self.points.items()}

    def speedup_over_lrsc(self, num_bins: int) -> float:
        """Colibri/LRSC throughput ratio at one contention level."""
        index = self.bins.index(num_bins)
        colibri = self.points["Colibri"][index].throughput
        lrsc = self.points["LRSC"][index].throughput
        return colibri / lrsc if lrsc else float("inf")

    def render(self) -> str:
        """The figure as a numeric table."""
        return render_series(
            "#Bins", self.bins, self.throughput_series(),
            title=(f"Fig. 3 — histogram updates/cycle "
                   f"({self.num_cores} cores)"))


def point_spec(label: str, num_bins: int, num_cores: int = 64,
               updates_per_core: int = 8, seed: int = 0) -> ScenarioSpec:
    """The scenario spec of one Fig. 3 point, by legend label."""
    by_label = {series.label: series for series in FIG3_SERIES}
    return histogram_spec(by_label[label], num_cores, num_bins,
                          updates_per_core, seed=seed)


def run_fig3(num_cores: int = 64, bins_list=None, updates_per_core: int = 8,
             seed: int = 0, jobs: int = 1, cache=None) -> Fig3Result:
    """Regenerate Fig. 3 at the given scale.

    ``jobs``/``cache`` shard and memoize the sweep's independent points
    (see :func:`repro.scenarios.run.run_scenarios`); results are
    identical for any ``jobs`` value.
    """
    if bins_list is None:
        max_banks = (num_cores // 4) * 16
        bins_list = [b for b in FULL_BINS if b <= max_banks]
    points = sweep_bins(FIG3_SERIES, num_cores, bins_list,
                        updates_per_core, seed=seed, jobs=jobs, cache=cache)
    return Fig3Result(num_cores=num_cores, bins=list(bins_list),
                      points=points)
