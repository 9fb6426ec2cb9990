"""Table II — energy per atomic access at maximum contention.

Paper setup: the histogram at its highest contention (1 bin), measured
post-layout at 600 MHz.  Rows: Atomic Add (29 pJ/op), Colibri
(124 pJ/op, the ±0 baseline), LRSC with 128-cycle backoff (884 pJ/op,
+613 %), Atomic Add lock (1092 pJ/op, +780 %).

We regenerate the table from simulated event counts priced by the
calibrated :class:`~repro.power.energy.EnergyModel`; the Δ column is
computed against Colibri exactly like the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scenarios.run import run_scenarios
from .harness import TABLE2_SERIES, histogram_spec
from .reporting import render_table

#: Published Table II: label -> (power mW, energy pJ/op, delta %).
PAPER_TABLE2 = {
    "Atomic Add": (175, 29, -77),
    "Colibri": (169, 124, 0),
    "LRSC": (186, 884, 613),
    "Atomic Add lock": (188, 1092, 780),
}


@dataclass
class Table2Result:
    """Measured energy table."""

    num_cores: int
    rows: list  # (label, power mW, pJ/op, delta %)

    def delta_percent(self, label: str) -> float:
        """Energy/op vs. the Colibri row, in percent (paper's Δ)."""
        by_label = {row[0]: row for row in self.rows}
        colibri = by_label["Colibri"][2]
        return 100.0 * (by_label[label][2] - colibri) / colibri

    def ratio(self, label: str) -> float:
        """Energy/op of ``label`` relative to Colibri."""
        by_label = {row[0]: row for row in self.rows}
        return by_label[label][2] / by_label["Colibri"][2]

    def render(self) -> str:
        """Table II with paper reference columns (blank for rows the
        paper does not report, e.g. user-registered variant series)."""
        merged = []
        for label, power, pj, delta in self.rows:
            paper_power, paper_pj, paper_delta = PAPER_TABLE2.get(
                label, ("-", "-", None))
            merged.append((label, round(power, 1), round(pj, 1),
                           f"{delta:+.0f}%", paper_power, paper_pj,
                           "-" if paper_delta is None
                           else f"{paper_delta:+d}%"))
        return render_table(
            ["Atomic access", "mW", "pJ/op", "delta",
             "paper mW", "paper pJ/op", "paper delta"],
            merged,
            title=(f"Table II — energy per op, histogram @ 1 bin "
                   f"({self.num_cores} cores)"))

    def to_dict(self) -> dict:
        """Schema: one row per atomic-access flavour."""
        return {
            "experiment": "table2",
            "parameters": {"num_cores": self.num_cores},
            "rows": [
                {"access": label, "power_mw": power, "pj_per_op": pj,
                 "delta_percent": delta}
                for label, power, pj, delta in self.rows
            ],
            "headline": {
                "lrsc_over_colibri": self.ratio("LRSC"),
                "lock_over_colibri": self.ratio("Atomic Add lock"),
            },
        }


def table2_specs(num_cores: int = 64, updates_per_core: int = 8,
                 seed: int = 0, series=None) -> list:
    """The scenario specs behind Table II's rows (default: the paper's
    four; pass extra :class:`~repro.eval.harness.SeriesSpec` rows to
    measure registered variants alongside them)."""
    return [histogram_spec(entry, num_cores, 1, updates_per_core,
                           seed=seed)
            for entry in (TABLE2_SERIES if series is None else series)]


def run_table2(num_cores: int = 64, updates_per_core: int = 8,
               seed: int = 0, jobs: int = 1, cache=None,
               series=None) -> Table2Result:
    """Regenerate Table II at the given scale (histogram, 1 bin).

    Rows are independent scenario specs; ``jobs``/``cache`` shard and
    memoize them (see :mod:`repro.scenarios.run`).  ``series`` widens
    the row set beyond the paper's four — any registered variant's
    series renders with blank paper-reference columns — but must keep
    a ``"Colibri"`` row, the Δ baseline.
    """
    if series is None:
        series = TABLE2_SERIES
    specs: list = table2_specs(num_cores, updates_per_core, seed=seed,
                               series=series)
    results = run_scenarios(specs, jobs=jobs, cache=cache)
    raw = []
    for entry, result in zip(series, results):
        point = result.point
        raw.append((entry.label, point.energy.power_mw(),
                    point.pj_per_op))
    colibri_pj = next((pj for label, _p, pj in raw if label == "Colibri"),
                      None)
    if colibri_pj is None:
        from ..engine.errors import ConfigError
        raise ConfigError(
            "run_table2 needs a 'Colibri' series row — it is the Δ "
            "column's baseline; include it in the custom series list")
    rows = [(label, power, pj, 100.0 * (pj - colibri_pj) / colibri_pj)
            for label, power, pj in raw]
    return Table2Result(num_cores=num_cores, rows=rows)
