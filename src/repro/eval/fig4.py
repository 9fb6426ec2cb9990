"""Fig. 4 — lock implementations vs generic RMW atomics.

Paper setup: same histogram as Fig. 3; series Colibri (raw LRSCwait
RMW), Colibri lock, Mwait lock (an MCS lock sleeping on Mwait), LRSC,
LRSC lock, Atomic Add lock.  Spin locks use a 128-cycle backoff.

Expected shape (§V-A): Colibri wins everywhere; LRSC/AMO spin locks
collapse at high contention (polling + retry traffic); the Mwait MCS
lock sits between (management overhead at low contention, graceful at
high contention).
"""

from __future__ import annotations

from ..scenarios.spec import ScenarioSpec
from .harness import (FIG4_SERIES, BinSweepResult, histogram_spec,
                      run_bin_sweep)

#: Approximate values read off the published Fig. 4 (updates/cycle,
#: 256 cores) at the contention extremes.
PAPER_REFERENCE = {
    "Colibri": {"1": 0.13, "1024": 6.5},
    "Colibri lock": {"1": 0.035, "1024": 1.2},
    "Mwait lock": {"1": 0.04, "1024": 0.8},
    "LRSC": {"1": 0.02, "1024": 5.8},
    "LRSC lock": {"1": 0.012, "1024": 1.1},
    "Atomic Add lock": {"1": 0.012, "1024": 1.3},
}


def point_spec(label: str, num_bins: int, num_cores: int = 64,
               updates_per_core: int = 8, seed: int = 0) -> ScenarioSpec:
    """The scenario spec of one Fig. 4 point, by legend label."""
    by_label = {series.label: series for series in FIG4_SERIES}
    return histogram_spec(by_label[label], num_cores, num_bins,
                          updates_per_core, seed=seed)


def headline(result: BinSweepResult) -> dict:
    """Whether Colibri is best at every contention."""
    return {"colibri_wins_everywhere": result.colibri_wins_everywhere()}


def run_fig4(num_cores: int = 64, bins_list=None, updates_per_core: int = 8,
             seed: int = 0, jobs: int = 1, cache=None) -> BinSweepResult:
    """Regenerate Fig. 4 at the given scale (see
    :func:`~repro.eval.harness.run_bin_sweep`)."""
    return run_bin_sweep("fig4",
                         "Fig. 4 — lock vs RMW histogram updates/cycle",
                         headline, FIG4_SERIES, num_cores, bins_list,
                         updates_per_core, seed, jobs, cache)
