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

from ..scenarios.spec import ScenarioSpec
from .harness import FULL_BINS  # noqa: F401  (Fig. 3's published sweep)
from .harness import (FIG3_SERIES, BinSweepResult, histogram_spec,
                      run_bin_sweep)

#: Approximate series read off the published Fig. 3 at the sweep's
#: extremes (updates/cycle at 1 bin and 1024 bins, 256 cores), for
#: shape comparison (``tests/eval/test_figures_helpers.py``), not
#: exact matching.
PAPER_REFERENCE = {
    "Atomic Add": {"1": 0.30, "1024": 16.0},
    "LRSCwait_ideal": {"1": 0.14, "1024": 7.0},
    "LRSCwait_128": {"1": 0.05, "1024": 6.0},
    "LRSCwait_1": {"1": 0.05, "1024": 6.0},
    "Colibri": {"1": 0.13, "1024": 6.5},
    "LRSC": {"1": 0.02, "1024": 5.8},
}


def point_spec(label: str, num_bins: int, num_cores: int = 64,
               updates_per_core: int = 8, seed: int = 0) -> ScenarioSpec:
    """The scenario spec of one Fig. 3 point, by legend label."""
    by_label = {series.label: series for series in FIG3_SERIES}
    return histogram_spec(by_label[label], num_cores, num_bins,
                          updates_per_core, seed=seed)


def headline(result: BinSweepResult) -> dict:
    """Colibri over LRSC at the highest contention."""
    return {"colibri_over_lrsc_at_max_contention":
            result.speedup_over_lrsc(result.bins[0])}


def run_fig3(num_cores: int = 64, bins_list=None, updates_per_core: int = 8,
             seed: int = 0, jobs: int = 1, cache=None) -> BinSweepResult:
    """Regenerate Fig. 3 at the given scale (see
    :func:`~repro.eval.harness.run_bin_sweep`)."""
    return run_bin_sweep("fig3", "Fig. 3 — histogram updates/cycle",
                         headline, FIG3_SERIES, num_cores, bins_list,
                         updates_per_core, seed, jobs, cache)
