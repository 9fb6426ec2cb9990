"""Fig. 6 — concurrent queue throughput and fairness vs core count.

Paper setup: one shared MCS-style queue; cores swept 1…256, each core
alternating enqueue/dequeue; y = queue accesses/cycle, with a shaded
band from the slowest to the fastest core (fairness).  Series: Colibri
(LRSCwait queue), Atomic Add lock (lock-based queue), LRSC.

Expected shape (§V-C): Colibri sustains throughput to the full system
(1.5×/1.48× at 8 cores, ~9× at 64 cores) and its band stays narrow;
LRSC and the lock collapse beyond ~8 cores with a wide band (some
cores starve).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.variants import VariantSpec
from ..scenarios.run import run_spec_grid
from ..scenarios.spec import ScenarioSpec, variant_string
from .points import QueuePoint
from .reporting import render_series

#: Queue method per legend label.
SERIES_METHODS = {
    "Colibri": ("wait", VariantSpec.colibri()),
    "Atomic Add lock": ("lock", VariantSpec.amo()),
    "LRSC": ("lrsc", VariantSpec.lrsc()),
}

#: Approximate published values (accesses/cycle) at 8 and 64 cores.
PAPER_REFERENCE = {
    "Colibri": {"8": 0.115, "64": 0.135},
    "Atomic Add lock": {"8": 0.078, "64": 0.020},
    "LRSC": {"8": 0.075, "64": 0.015},
}


@dataclass
class Fig6Result:
    """Measured Fig. 6 series."""

    core_counts: list
    points: dict  # label -> [QueuePoint]

    def throughput_series(self) -> dict:
        """label -> [accesses/cycle] aligned with ``core_counts``."""
        return {label: [p.throughput for p in pts]
                for label, pts in self.points.items()}

    def fairness_series(self) -> dict:
        """label -> [Jain index] aligned with ``core_counts``."""
        return {label: [p.jain_fairness for p in pts]
                for label, pts in self.points.items()}

    def speedup(self, num_cores: int, over: str = "LRSC") -> float:
        """Colibri speedup over a baseline at one core count."""
        index = self.core_counts.index(num_cores)
        colibri = self.points["Colibri"][index].throughput
        base = self.points[over][index].throughput
        return colibri / base if base else float("inf")

    def render(self) -> str:
        """Throughput and fairness tables."""
        throughput = render_series(
            "#Cores", self.core_counts, self.throughput_series(),
            title="Fig. 6 — queue accesses/cycle")
        fairness = render_series(
            "#Cores", self.core_counts, self.fairness_series(),
            title="Fig. 6 (band) — Jain fairness of per-core ops")
        return throughput + "\n\n" + fairness

    def to_dict(self) -> dict:
        """Schema: throughput and fairness per core count."""
        return {
            "experiment": "fig6",
            "parameters": {"core_counts": self.core_counts},
            "series": self.throughput_series(),
            "fairness": self.fairness_series(),
            "headline": {
                "colibri_over_lrsc_at_max":
                    self.speedup(self.core_counts[-1]),
            },
        }


def queue_spec(label: str, system_cores: int, active_cores: int,
               ops_per_core: int, seed: int = 0) -> ScenarioSpec:
    """The scenario spec of one Fig. 6 (series, #active cores) point."""
    method, variant = SERIES_METHODS[label]
    return ScenarioSpec(
        workload="queue",
        num_cores=system_cores,
        variant=variant_string(variant),
        params={"method": method, "active_cores": active_cores,
                "ops_per_core": ops_per_core, "label": label},
        seed=seed)


def run_fig6(max_cores: int = 64, core_counts=None, ops_per_core: int = 16,
             seed: int = 0, jobs: int = 1, cache=None) -> Fig6Result:
    """Regenerate Fig. 6 at the given scale.

    The *system* stays at ``max_cores`` (bank count fixed) while the
    number of cores using the queue sweeps, as in the paper.  Points
    are independent scenario specs; ``jobs``/``cache`` shard and
    memoize them (see :mod:`repro.scenarios.run`).
    """
    if core_counts is None:
        core_counts = [c for c in (1, 2, 4, 8, 16, 32, 64, 128, 256)
                       if c <= max_cores]
    core_counts = list(core_counts)
    grid = run_spec_grid(
        [(label, label) for label in SERIES_METHODS],
        core_counts,
        lambda label, active: queue_spec(label, max_cores, active,
                                         ops_per_core, seed=seed),
        jobs=jobs, cache=cache)
    points = {label: [result.point for result in row]
              for label, row in grid.items()}
    return Fig6Result(core_counts=core_counts, points=points)
