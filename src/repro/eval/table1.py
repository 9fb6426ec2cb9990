"""Table I — area of a ``mempool_tile`` with each hardware option.

The analytic model (:mod:`repro.power.area`) is evaluated for every
published row and compared against the paper's kGE numbers, plus the
scaling extrapolation that motivates Colibri: the per-core queue of
LRSCwait_ideal grows quadratically at system level, Colibri linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.variants import VariantSpec, list_variants
from ..power.area import (
    PAPER_TABLE1,
    TILE_BASE_KGE,
    TILE_CORES,
    base_tile,
    colibri_tile,
    lrscwait_tile,
    system_overhead_kge,
    table1_rows,
    variant_overhead_kge,
)
from .reporting import render_table


@dataclass
class Table1Result:
    """Model rows alongside the published numbers."""

    rows: list  # (label, model kGE, model %, paper kGE, paper %)

    def max_relative_error(self) -> float:
        """Worst |model - paper| / paper over all rows."""
        worst = 0.0
        for _label, model_kge, _mp, paper_kge, _pp in self.rows:
            worst = max(worst, abs(model_kge - paper_kge) / paper_kge)
        return worst

    def render(self) -> str:
        """Table I with model-vs-paper columns."""
        return render_table(
            ["Architecture", "model kGE", "model %", "paper kGE",
             "paper %"],
            self.rows,
            title="Table I — mempool_tile area")

    def to_dict(self) -> dict:
        """Schema: one row per architecture with model and paper columns."""
        return {
            "experiment": "table1",
            "rows": [
                {"architecture": label, "model_kge": model_kge,
                 "model_percent": model_pct, "paper_kge": paper_kge,
                 "paper_percent": paper_pct}
                for label, model_kge, model_pct, paper_kge, paper_pct
                in self.rows
            ],
            "headline": {"max_relative_error": self.max_relative_error()},
        }


def run_table1() -> Table1Result:
    """Evaluate the area model for every published row."""
    rows = []
    for tile in table1_rows():
        paper_kge, paper_pct = PAPER_TABLE1[tile.label]
        rows.append((tile.label, round(tile.kge, 1),
                     round(tile.percent, 1), paper_kge, paper_pct))
    return Table1Result(rows=rows)


def variant_area_rows(num_cores: int = 256) -> list:
    """One area row per *registered* variant, at representative params.

    Registered through the open variant API, every plugin's
    ``tile_area_kge`` cost-model hook lands here — user variants appear
    automatically.  Rows: ``(name, label, per-tile added kGE, per-core
    added kGE, tile area %)`` at a system scale of ``num_cores``.
    """
    rows = []
    for name, plugin in list_variants():
        variant = VariantSpec(name, params=plugin.listing_params())
        overhead = variant_overhead_kge(variant, num_cores)
        rows.append((
            name,
            variant.materialize(num_cores).label(),
            round(overhead, 1),
            round(overhead / TILE_CORES, 2),
            round(100.0 * (TILE_BASE_KGE + overhead) / TILE_BASE_KGE, 1),
        ))
    return rows


def variant_area_table(num_cores: int = 256) -> str:
    """The registry-wide area accounting as a rendered table."""
    return render_table(
        ["variant", "label", "tile +kGE", "kGE/core", "tile %"],
        variant_area_rows(num_cores),
        title=(f"Registered variants — modeled tile area overhead "
               f"@ {num_cores} cores"))


def scaling_table(core_counts=(16, 64, 256, 1024)) -> str:
    """The §III-A scaling argument as numbers: total added kGE."""
    rows = []
    for cores in core_counts:
        rows.append((
            cores,
            round(system_overhead_kge(cores, "lrscwait_ideal"), 0),
            round(system_overhead_kge(cores, "lrscwait", queue_slots=8), 0),
            round(system_overhead_kge(cores, "colibri", num_addresses=4), 0),
        ))
    return render_table(
        ["#Cores", "ideal queue kGE", "LRSCwait_8 kGE", "Colibri_4 kGE"],
        rows,
        title="System-level added area (O(n^2) vs O(n))")
