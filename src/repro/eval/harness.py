"""Shared experiment runners, as scenario-spec factories.

The histogram experiments (Figs. 3 and 4, Table II) all run the same
workload with different (variant, update-method, lock) combinations;
:data:`SERIES` names each combination exactly as the paper's legends
do.  Since the scenario API landed, a :class:`SeriesSpec` is purely a
*naming* layer: :func:`histogram_spec` turns one (series, scale,
contention) combination into a :class:`~repro.scenarios.spec.
ScenarioSpec`, which runs like any other scenario (serializable,
hashable, cacheable and shardable).  Figs. 3 and 4 are the same bin
sweep over different legends: :func:`run_bin_sweep` runs either and
returns a :class:`BinSweepResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..memory.variants import VariantSpec
from ..scenarios.run import run_spec_grid
from ..scenarios.spec import ScenarioSpec, parse_variant, variant_string
from .points import HistogramPoint
from .reporting import render_series

__all__ = [
    "SeriesSpec", "HistogramPoint", "FIG3_SERIES", "FIG4_SERIES",
    "TABLE2_SERIES", "FULL_BINS", "histogram_spec", "BinSweepResult",
    "run_bin_sweep",
]


@dataclass(frozen=True)
class SeriesSpec:
    """One legend entry: hardware variant + software update scheme.

    ``variant_kind`` names any registered atomic variant — the paper's
    legends use the four of Fig. 1, but a user-registered variant makes
    a series the same way (``SeriesSpec("Ticket", "ticket", "wait")``).
    """

    label: str
    variant_kind: str          # any registered variant name
    method: str                # "amo" | "lrsc" | "wait" | "lock"
    lock: Optional[str] = None  # "amo" | "lrsc" | "colibri" | "mcs"
    #: For lrscwait: queue slots; None = ideal, "half" = num_cores // 2.
    queue_slots: Optional[object] = None

    def variant(self, num_cores: int) -> VariantSpec:
        """Materialize the hardware variant for a system size."""
        text = self.variant_kind
        if text == "lrscwait":
            slots = "ideal" if self.queue_slots is None else self.queue_slots
            text = f"lrscwait:{slots}"
        return parse_variant(text, num_cores)

    def lock_class(self):
        """The lock implementation for ``method == "lock"`` series."""
        from ..scenarios.workloads import LOCK_CLASSES
        return LOCK_CLASSES[self.lock]


#: Fig. 3 legend (generic RMW primitives).
FIG3_SERIES = [
    SeriesSpec("Atomic Add", "amo", "amo"),
    SeriesSpec("LRSCwait_ideal", "lrscwait", "wait", queue_slots=None),
    SeriesSpec("LRSCwait_half", "lrscwait", "wait", queue_slots="half"),
    SeriesSpec("LRSCwait_1", "lrscwait", "wait", queue_slots=1),
    SeriesSpec("Colibri", "colibri", "wait"),
    SeriesSpec("LRSC", "lrsc", "lrsc"),
]

#: Fig. 4 legend (lock-based schemes vs. generic RMW).
FIG4_SERIES = [
    SeriesSpec("Colibri", "colibri", "wait"),
    SeriesSpec("Colibri lock", "colibri", "lock", lock="colibri"),
    SeriesSpec("Mwait lock", "colibri", "lock", lock="mcs"),
    SeriesSpec("LRSC", "lrsc", "lrsc"),
    SeriesSpec("LRSC lock", "lrsc", "lock", lock="lrsc"),
    SeriesSpec("Atomic Add lock", "amo", "lock", lock="amo"),
]

#: Table II rows (histogram at maximum contention).
TABLE2_SERIES = [
    SeriesSpec("Atomic Add", "amo", "amo"),
    SeriesSpec("Colibri", "colibri", "wait"),
    SeriesSpec("LRSC", "lrsc", "lrsc"),
    SeriesSpec("Atomic Add lock", "amo", "lock", lock="amo"),
]


def histogram_spec(series: SeriesSpec, num_cores: int, num_bins: int,
                   updates_per_core: int, seed: int = 0,
                   lock_backoff_window: int = 128) -> ScenarioSpec:
    """The scenario spec of one (series, scale, contention) point."""
    params = {
        "bins": num_bins,
        "updates_per_core": updates_per_core,
        "method": series.method,
        "label": series.label,
    }
    if series.method == "lock":
        params["lock"] = series.lock
        params["lock_backoff_window"] = lock_backoff_window
    return ScenarioSpec(
        workload="histogram",
        num_cores=num_cores,
        variant=variant_string(series.variant(num_cores)),
        params=params,
        seed=seed)


#: Bin sweep of Figs. 3 and 4 (paper: 1..1024; scaled runs cap at #banks).
FULL_BINS = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


@dataclass
class BinSweepResult:
    """Measured series of one histogram bin sweep: Fig. 3 or Fig. 4."""

    experiment: str  # "fig3" | "fig4"
    title: str
    #: The figure's headline numbers, from its result.
    headline: Callable[["BinSweepResult"], dict]
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

    def colibri_wins_everywhere(self) -> bool:
        """Colibri best at every contention (Fig. 4's headline)."""
        series = self.throughput_series()
        colibri = series["Colibri"]
        return all(
            colibri[i] >= max(values[i] for values in series.values())
            for i in range(len(self.bins)))

    def render(self) -> str:
        """The figure as a numeric table."""
        return render_series(
            "#Bins", self.bins, self.throughput_series(),
            title=f"{self.title} ({self.num_cores} cores)")

    def to_dict(self) -> dict:
        """Schema: bins on the x axis, throughput per series."""
        return {
            "experiment": self.experiment,
            "parameters": {"num_cores": self.num_cores,
                           "bins": self.bins},
            "series": self.throughput_series(),
            "headline": self.headline(self),
        }


def run_bin_sweep(experiment: str, title: str, headline: Callable,
                  series_list, num_cores: int, bins_list,
                  updates_per_core: int, seed: int, jobs: int,
                  cache) -> BinSweepResult:
    """Run every series of a legend at every bin count.

    ``bins_list=None`` sweeps :data:`FULL_BINS` up to the bank count.
    Points are independent scenario specs, so ``jobs``/``cache`` shard
    and memoize them (see :func:`repro.scenarios.run.run_scenarios`);
    results are identical for any ``jobs`` value.
    """
    if bins_list is None:
        max_banks = (num_cores // 4) * 16
        bins_list = [b for b in FULL_BINS if b <= max_banks]
    grid = run_spec_grid(
        [(series.label, series) for series in series_list],
        bins_list,
        lambda series, num_bins: histogram_spec(
            series, num_cores, num_bins, updates_per_core, seed=seed),
        jobs=jobs, cache=cache)
    return BinSweepResult(
        experiment=experiment, title=title, headline=headline,
        num_cores=num_cores,
        bins=list(bins_list),
        points={label: [result.point for result in row]
                for label, row in grid.items()})
