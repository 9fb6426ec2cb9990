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

from dataclasses import dataclass

from ..scenarios.spec import ScenarioSpec
from .fig3 import FULL_BINS
from .harness import FIG4_SERIES, histogram_spec, sweep_bins
from .reporting import render_series

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


@dataclass
class Fig4Result:
    """Measured Fig. 4 series."""

    num_cores: int
    bins: list
    points: dict

    def throughput_series(self) -> dict:
        """label -> [updates/cycle], aligned with ``bins``."""
        return {label: [p.throughput for p in pts]
                for label, pts in self.points.items()}

    def colibri_wins_everywhere(self) -> bool:
        """The paper's headline: Colibri best at every contention."""
        series = self.throughput_series()
        colibri = series["Colibri"]
        return all(
            colibri[i] >= max(values[i] for values in series.values())
            for i in range(len(self.bins)))

    def render(self) -> str:
        """The figure as a numeric table."""
        return render_series(
            "#Bins", self.bins, self.throughput_series(),
            title=(f"Fig. 4 — lock vs RMW histogram updates/cycle "
                   f"({self.num_cores} cores)"))


def point_spec(label: str, num_bins: int, num_cores: int = 64,
               updates_per_core: int = 8, seed: int = 0) -> ScenarioSpec:
    """The scenario spec of one Fig. 4 point, by legend label."""
    by_label = {series.label: series for series in FIG4_SERIES}
    return histogram_spec(by_label[label], num_cores, num_bins,
                          updates_per_core, seed=seed)


def run_fig4(num_cores: int = 64, bins_list=None, updates_per_core: int = 8,
             seed: int = 0, jobs: int = 1, cache=None) -> Fig4Result:
    """Regenerate Fig. 4 at the given scale.

    ``jobs``/``cache`` shard and memoize the sweep's independent points
    (see :func:`repro.scenarios.run.run_scenarios`); results are
    identical for any ``jobs`` value.
    """
    if bins_list is None:
        max_banks = (num_cores // 4) * 16
        bins_list = [b for b in FULL_BINS if b <= max_banks]
    points = sweep_bins(FIG4_SERIES, num_cores, bins_list,
                        updates_per_core, seed=seed, jobs=jobs, cache=cache)
    return Fig4Result(num_cores=num_cores, bins=list(bins_list),
                      points=points)
