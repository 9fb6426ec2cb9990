"""Analytic area model (reproduces Table I).

Table I reports post-synthesis area of one ``mempool_tile`` (4 cores +
16 banks, GF 22FDX) for every hardware option.  We reproduce it with a
component-level model whose constants are fitted to the published
points, and use the same model to extrapolate the scaling argument of
§III-A (the ideal central queue grows as O(n·log n) *per bank* — a
quadratic system total — while Colibri grows as O(n + 2m)).

Fitted constants (kGE):

* ``TILE_BASE = 691`` — the unmodified tile (Table I row 1).
* LRSCwait_q adapter per bank: ``MONITOR + q·SLOT`` where the two
  published points (q=1 → +99 kGE/tile, q=8 → +174 kGE/tile over 16
  banks) give ``MONITOR = 5.52``, ``SLOT = 0.67``.
* Colibri per tile: ``QNODE`` per core plus per-bank controller
  ``CTRL_BASE + a·HEADTAIL`` for ``a`` tracked addresses; a least-
  squares fit over the four published points (a ∈ {1,2,4,8} → +41, +59,
  +70, +111 kGE) yields a lumped fixed part of 34.6 kGE/tile and
  0.594 kGE per (bank × address).

The published Table I rows are also embedded verbatim
(:data:`PAPER_TABLE1`) so Table I (``repro reproduce``, ``repro area``)
prints model-vs-paper.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Unmodified mempool_tile area in kGE (Table I row 1).
TILE_BASE_KGE = 691.0
#: Banks and cores in one mempool_tile.
TILE_BANKS = 16
TILE_CORES = 4

#: LRSCwait_q per-bank constants, fitted to the q=1 and q=8 rows.
LRSCWAIT_MONITOR_KGE = 5.52
LRSCWAIT_SLOT_KGE = 0.67

#: Colibri lumped per-tile fixed part (Qnodes + controller bases) and
#: per-(bank × address) head/tail register cost, least-squares fit.
COLIBRI_FIXED_KGE = 34.6
COLIBRI_PER_BANK_ADDRESS_KGE = 0.594

#: Estimated (not fitted — no published synthesis) per-bank costs of
#: the §II baseline/related-work reservation storage, used by their
#: registered cost-model hooks: MemPool's single slot, one ATUN table
#: entry (address-wide, per core), one GRVI reservation bit (per core).
LRSC_SLOT_KGE = 0.3
LRSC_TABLE_ENTRY_KGE = 0.45
LRSC_BANK_BIT_KGE = 0.012

#: Published Table I (architecture label -> (area kGE, area %)).
PAPER_TABLE1 = {
    "MemPool tile": (691, 100.0),
    "with LRSCwait_1": (790, 116.4),
    "with LRSCwait_8": (865, 127.4),
    "with Colibri 1 address": (732, 105.9),
    "with Colibri 2 addresses": (750, 108.5),
    "with Colibri 4 addresses": (761, 110.1),
    "with Colibri 8 addresses": (802, 116.3),
}


@dataclass(frozen=True)
class TileArea:
    """Area of one tile under a given hardware option."""

    label: str
    kge: float

    @property
    def percent(self) -> float:
        """Relative to the unmodified tile, like Table I's Area[%]."""
        return 100.0 * self.kge / TILE_BASE_KGE


def base_tile() -> TileArea:
    """The unmodified mempool_tile."""
    return TileArea("MemPool tile", TILE_BASE_KGE)


def lrscwait_tile(queue_slots: int, banks: int = TILE_BANKS) -> TileArea:
    """Tile area with a centralized LRSCwait_q adapter per bank.

    ``queue_slots = num_cores`` gives the *ideal* design the paper
    calls "physically infeasible for a system of MemPool's scale".
    """
    adapter = LRSCWAIT_MONITOR_KGE + queue_slots * LRSCWAIT_SLOT_KGE
    return TileArea(f"with LRSCwait_{queue_slots}",
                    TILE_BASE_KGE + banks * adapter)


def colibri_tile(num_addresses: int, banks: int = TILE_BANKS) -> TileArea:
    """Tile area with Colibri (Qnodes + head/tail pairs per bank)."""
    extra = (COLIBRI_FIXED_KGE
             + banks * num_addresses * COLIBRI_PER_BANK_ADDRESS_KGE)
    plural = "address" if num_addresses == 1 else "addresses"
    return TileArea(f"with Colibri {num_addresses} {plural}",
                    TILE_BASE_KGE + extra)


def variant_overhead_kge(variant, num_cores: int,
                         banks: int = TILE_BANKS,
                         cores: int = TILE_CORES) -> float:
    """Per-tile added kGE of a :class:`~repro.memory.variants.
    VariantSpec`, through its registered plugin's cost-model hook.

    ``num_cores`` is the *system* core count: reservation storage that
    scales with it (per-core tables, the ideal queue) is what the
    §III-A scaling argument quantifies.
    """
    from ..memory.variants import get_variant
    plugin = get_variant(variant.kind)
    return plugin.tile_area_kge(variant.resolved(num_cores), num_cores,
                                banks=banks, cores=cores)


#: Legacy ``system_overhead_kge`` kind spellings -> variant parameters.
_LEGACY_KINDS = {
    "lrscwait_ideal": ("lrscwait", "queue_slots", None),
    "lrscwait": ("lrscwait", "queue_slots", "queue_slots"),
    "colibri": ("colibri", "num_addresses", "num_addresses"),
}


def system_overhead_kge(num_cores: int, kind: str,
                        queue_slots: int = 8,
                        num_addresses: int = 4) -> float:
    """Total added kGE for a whole system of ``num_cores`` (scaling
    curves for the §III-A argument; 4 cores and 16 banks per tile).

    ``kind`` names any registered variant, evaluated at its default
    parameters, plus the legacy spellings: ``"lrscwait_ideal"`` sizes
    every bank's queue for all cores (the O(n²) design), ``"lrscwait"``
    uses fixed ``queue_slots``, ``"colibri"`` uses ``num_addresses``
    head/tail pairs per bank.  Unknown kinds raise
    :class:`~repro.memory.variants.UnknownVariantError` (a
    :class:`~repro.engine.errors.ConfigError`), so CLI paths exit 2
    like every other bad-input error.
    """
    from ..memory.variants import VariantSpec
    arguments = {"queue_slots": queue_slots, "num_addresses": num_addresses}
    if kind in _LEGACY_KINDS:
        name, param, source = _LEGACY_KINDS[kind]
        value = None if source is None else arguments[source]
        variant = VariantSpec(name, **{param: value})
    else:
        variant = VariantSpec(kind=kind)     # UnknownVariantError here
    tiles = num_cores // TILE_CORES
    return tiles * variant_overhead_kge(variant, num_cores)


def table1_rows() -> list:
    """The model's reproduction of every Table I row, in paper order."""
    return [
        base_tile(),
        lrscwait_tile(1),
        lrscwait_tile(8),
        colibri_tile(1),
        colibri_tile(2),
        colibri_tile(4),
        colibri_tile(8),
    ]
