"""Fig. 5 — matmul performance under interference from atomics.

Paper setup: 256 cores partitioned into pollers (atomic histogram
updates) and workers (matmul); poller:worker ∈ {128:128, 192:64, 248:8,
252:4}; bins swept 1…16; y = worker throughput relative to an
interference-free run.

Expected shape (§V-B): Colibri pollers leave workers essentially
untouched (≈1.0) even at 252:4 and 1 bin, because sleeping cores inject
no traffic; LRSC pollers crush workers (down to ≈0.26 at 252:4)
despite their 128-cycle backoff.

On scaled systems the ratios keep the paper's *worker fractions*:
{1/2, 1/4, 1/32, 1/64} of the cores are workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.config import SystemConfig
from ..memory.variants import VariantSpec
from ..scenarios.run import run_spec_grid
from .reporting import render_series

#: Worker fractions matching the paper's 256-core ratios.
PAPER_WORKER_FRACTIONS = (0.5, 0.25, 1 / 32, 1 / 64)

#: Bin sweep of the published figure.
FULL_BINS = [1, 4, 8, 12, 16]

#: Approximate values read off the published Fig. 5 (relative worker
#: throughput at 1 bin).
PAPER_REFERENCE = {
    "Colibri, 252:4": 0.99,
    "LRSC, 128:128": 0.88,
    "LRSC, 192:64": 0.80,
    "LRSC, 248:8": 0.45,
    "LRSC, 252:4": 0.26,
}


@dataclass
class Fig5Result:
    """Measured Fig. 5 series."""

    num_cores: int
    bins: list
    series: dict  # label -> [relative throughput per bin count]

    def render(self) -> str:
        """The figure as a numeric table."""
        return render_series(
            "#Bins", self.bins, self.series,
            title=(f"Fig. 5 — relative matmul throughput under "
                   f"interference ({self.num_cores} cores)"))

    def worst_case(self, label: str) -> float:
        """Minimum relative throughput across the sweep for a series."""
        return min(self.series[label])

    def to_dict(self) -> dict:
        """Schema: relative worker throughput per poller:worker series."""
        return {
            "experiment": "fig5",
            "parameters": {"num_cores": self.num_cores,
                           "bins": self.bins},
            "series": self.series,
        }


def _ratio_label(method: str, num_cores: int, num_workers: int) -> str:
    return f"{method}, {num_cores - num_workers}:{num_workers}"


def run_fig5(num_cores: int = 64, bins_list=None, matmul_dim: int = 12,
             seed: int = 0, jobs: int = 1, cache=None) -> Fig5Result:
    """Regenerate Fig. 5 at the given scale.

    Runs Colibri at the most adversarial ratio plus LRSC at every
    paper ratio, exactly like the published figure.  Each (ratio,
    bins) point is an ``interference`` scenario spec; ``jobs``/
    ``cache`` shard and memoize them (see :mod:`repro.scenarios.run`).
    """
    # Late import: repro.eval's package init reaches this module while
    # repro.scenarios.workloads (which registers the workload) may
    # itself still be mid-import via the scenarios package init.
    from ..scenarios.workloads import interference_spec
    if bins_list is None:
        bins_list = FULL_BINS
    bins_list = list(bins_list)
    worker_counts = sorted(
        {max(1, round(num_cores * fraction))
         for fraction in PAPER_WORKER_FRACTIONS},
        reverse=True)
    config = SystemConfig.scaled(num_cores)
    # Colibri at the fewest-workers (most pollers) ratio, then LRSC at
    # every paper ratio — one sweep row per (method, workers) combo.
    fewest = worker_counts[-1]
    combos = [("Colibri", VariantSpec.colibri(), "wait", fewest)]
    combos.extend(("LRSC", VariantSpec.lrsc(), "lrsc", workers)
                  for workers in worker_counts)
    rows = [(_ratio_label(name, num_cores, workers),
             (variant, method, workers))
            for name, variant, method, workers in combos]
    grid = run_spec_grid(
        rows, bins_list,
        lambda row, bins: interference_spec(
            config, row[0], row[1], row[2], bins,
            matmul_dim=matmul_dim, seed=seed),
        jobs=jobs, cache=cache)
    series = {label: [result.point.relative_throughput for result in row]
              for label, row in grid.items()}
    return Fig5Result(num_cores=num_cores, bins=bins_list,
                      series=series)
