"""Atomic-unit variants: the plugin registry and :class:`VariantSpec`.

The paper's whole argument is a comparison across atomic-memory
variants, so the variant layer is *open*: each variant is an
:class:`AtomicVariant` plugin registered under a name with
:func:`register_variant` — one instance of the shared
:class:`~repro.registry.Registry`, like workloads, probes and
samplers.  A plugin packages everything the rest of the codebase needs
to know about one piece of reservation hardware:

* a **typed parameter schema** (:class:`VariantParam`): defaults,
  bounds, and symbolic values like ``"half"``/``"cores"`` that resolve
  against the machine's core count at build time;
* an **adapter factory** (:meth:`AtomicVariant.make_adapter`) building
  the per-bank :class:`~repro.memory.adapter.AtomicAdapter`;
* **capability flags** (``supports_lrsc``/``supports_wait``/
  ``native_method``) that tell workloads which RMW flavour the hardware
  is built for;
* **cost-model hooks**: :meth:`AtomicVariant.tile_area_kge` feeds the
  Table I area accounting and the §III-A scaling curves, and
  :meth:`AtomicVariant.adapter_energy_pj` lets a variant charge its
  reservation machinery into the Table II energy model.

The six variants of the paper (Fig. 1 plus the §II related-work
comparators) are registered here as built-ins; nothing distinguishes
them from user registrations (see ``examples/custom_variant.py`` and
:mod:`repro.memory.extra_variants`).

:class:`VariantSpec` stays the value object the rest of the system
passes around: a frozen ``(kind, params)`` pair validated against the
registered schema.  The legacy constructor keywords ``queue_slots`` and
``num_addresses`` still work for the built-ins that define them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine.errors import ConfigError
from ..registry import Registry
from .adapter import AmoAdapter
from .colibri import ColibriAdapter
from .lrsc import LrscAdapter
from .lrsc_variants import LrscBankAdapter, LrscTableAdapter
from .lrscwait import LrscWaitAdapter


class UnknownVariantError(ConfigError):
    """A spec named an atomic-memory variant that is not registered."""


#: Symbolic parameter values and their build-time resolution against
#: the machine's core count.  ``"ideal"`` maps to ``None``, the stored
#: spelling of "one queue slot per core".
SYMBOLIC_VALUES = {
    "half": lambda num_cores: max(1, num_cores // 2),
    "cores": lambda num_cores: num_cores,
    "ideal": lambda num_cores: None,
}


@dataclass(frozen=True)
class VariantParam:
    """Schema of one variant parameter.

    ``default`` is the value used when the parameter is omitted;
    ``example`` (falling back to ``default``) is what listings and the
    area table use for a representative configuration.  ``symbolic``
    names the tokens from :data:`SYMBOLIC_VALUES` this parameter
    accepts; they resolve to concrete integers (or ``None``) when the
    machine is built.  ``required`` forces variant *strings* to spell
    the parameter explicitly (``"lrscwait"`` alone is ambiguous — is it
    1 slot or ideal? — so its schema demands an argument).
    """

    default: object = None
    minimum: Optional[int] = None
    required: bool = False
    symbolic: tuple = ()
    allow_none: bool = False
    example: object = None
    doc: str = ""

    def listing_value(self):
        """Representative value for registry listings and area tables."""
        return self.default if self.example is None else self.example


class AtomicVariant:
    """Base class for registered atomic-memory variant plugins.

    Subclasses declare the schema and flags as class attributes and
    implement :meth:`make_adapter`; the cost-model hooks and the
    string/label rendering have sensible defaults.  Plugins are
    stateless singletons (like workloads): per-run state lives in the
    adapters they build.
    """

    #: Registry name, filled by :func:`register_variant`.
    name: str = ""
    description: str = ""
    #: Parameter name -> :class:`VariantParam` schema.
    params: dict = {}
    #: Parameter a bare ``"name:<value>"`` string argument maps to
    #: (``None`` = the variant takes no positional argument).
    positional: Optional[str] = None
    #: True when plain LR/SC are legal on this variant.
    supports_lrsc: bool = False
    #: True when LRwait/SCwait/Mwait are legal on this variant.
    supports_wait: bool = False
    #: The RMW update method this hardware is built for ("amo" |
    #: "lrsc" | "wait") — the default a workload uses when no method is
    #: requested.
    native_method: str = "amo"

    # -- adapter construction -------------------------------------------------

    def make_adapter(self, controller, params: dict, num_cores: int,
                     strict: bool):
        """Build the per-bank adapter for resolved ``params``."""
        raise NotImplementedError(
            f"variant {self.name!r} does not implement make_adapter()")

    # -- cost-model hooks ------------------------------------------------------

    def tile_area_kge(self, params: dict, num_cores: int,
                      banks: Optional[int] = None,
                      cores: Optional[int] = None) -> float:
        """Added kGE of one tile (default shape: 4 cores, 16 banks).

        ``num_cores`` is the *system* core count — reservation storage
        that scales with it (per-core tables, the ideal queue) is
        exactly what Table I's scaling argument quantifies.  The base
        class charges nothing (machinery folded into the base tile).
        """
        return 0.0

    def adapter_energy_pj(self, params: dict, stats) -> float:
        """Extra picojoules this variant's machinery burned in a run.

        Called by :class:`~repro.power.energy.EnergyModel` with the
        run's :class:`~repro.engine.stats.SimStats`.  Built-ins return
        0.0 — their adapter energy is folded into the calibrated
        event coefficients — so the published Table II stays
        bit-identical; new variants can price their own hardware.
        """
        return 0.0

    # -- rendering -------------------------------------------------------------

    def label(self, params: dict) -> str:
        """Short human-readable name used in result tables."""
        return self.name

    def string(self, params: dict) -> str:
        """The canonical spec string for this parameter set.

        Default: parameters equal to their defaults are omitted; a
        single non-default positional parameter renders as
        ``name:value``, anything else as ``name:key=val,...``.
        Built-ins override this where the legacy spelling differs.
        """
        diff = {key: value for key, value in params.items()
                if value != self.params[key].default}
        if not diff:
            return self.name
        if self.positional is not None and set(diff) == {self.positional}:
            return f"{self.name}:{diff[self.positional]}"
        return self.name + ":" + ",".join(
            f"{key}={value}" for key, value in sorted(diff.items()))

    # -- schema plumbing -------------------------------------------------------

    def fill_defaults(self, raw: dict) -> dict:
        """Defaults merged with ``raw`` overrides; validates everything."""
        unknown = sorted(set(raw) - set(self.params))
        if unknown:
            raise ConfigError(
                f"variant {self.name!r} has no parameter(s) {unknown}; "
                f"accepted: {sorted(self.params) or '(none)'}")
        merged = {}
        for key, schema in self.params.items():
            value = raw.get(key, schema.default)
            self.check_value(key, value)
            merged[key] = value
        return merged

    def check_value(self, key: str, value) -> None:
        """Validate one parameter value (symbolic tokens allowed)."""
        schema = self.params[key]
        if value is None:
            if schema.allow_none:
                return
            raise ConfigError(
                f"variant {self.name!r} parameter {key!r} must be set")
        if isinstance(value, str):
            if value in schema.symbolic:
                return
            raise ConfigError(
                f"variant {self.name!r} parameter {key!r}: "
                f"{value!r} is not an int"
                + (f" or one of {sorted(schema.symbolic)}"
                   if schema.symbolic else ""))
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(
                f"variant {self.name!r} parameter {key!r} must be an "
                f"int, got {value!r}")
        if schema.minimum is not None and value < schema.minimum:
            raise ConfigError(
                f"variant {self.name!r} parameter {key!r} must be "
                f">= {schema.minimum}, got {value}")

    def resolve(self, params: dict, num_cores: int) -> dict:
        """Symbolic values materialized for a system of ``num_cores``."""
        resolved = {}
        for key, value in params.items():
            if isinstance(value, str):
                if value not in SYMBOLIC_VALUES:
                    # Unreachable for registered schemas (registration
                    # rejects unknown tokens), but keep raw dicts honest.
                    raise ConfigError(
                        f"variant {self.name!r} parameter {key!r}: no "
                        f"resolution rule for symbolic value {value!r}; "
                        f"known: {sorted(SYMBOLIC_VALUES)}")
                value = SYMBOLIC_VALUES[value](num_cores)
                self.check_value(key, value)
            resolved[key] = value
        return resolved

    def listing_params(self) -> dict:
        """Representative parameter values for listings/area tables."""
        return {key: schema.listing_value()
                for key, schema in self.params.items()}


def _check_symbolic(name: str, plugin: AtomicVariant) -> None:
    """Refuse a schema token that has no :data:`SYMBOLIC_VALUES` rule."""
    for key, schema in plugin.params.items():
        unknown = sorted(set(schema.symbolic) - set(SYMBOLIC_VALUES))
        if unknown:
            raise ConfigError(
                f"variant {name!r} parameter {key!r} declares "
                f"symbolic values {unknown} with no resolution "
                f"rule; known: {sorted(SYMBOLIC_VALUES)}")


#: name -> variant plugin instance.
_VARIANTS = Registry("variant", UnknownVariantError, instantiate=True,
                     check=_check_symbolic, title="atomic-memory variant")
unregister_variant = _VARIANTS.unregister
get_variant = _VARIANTS.get
list_variants = _VARIANTS.items


def register_variant(name: str, *, replace: bool = False):
    """Class decorator registering an :class:`AtomicVariant` plugin.

    The class is instantiated once at registration (plugins are
    stateless — per-run state lives in the adapters they build).
    Re-registering an existing name raises unless ``replace=True``,
    which user code can use to shadow a built-in deliberately.

    The name must be expressible in the variant-string grammar (a
    Python-identifier shape — ``:``/``=``/``,``/``-`` are grammar
    punctuation and ``ideal`` is a reserved alias), checked at call
    time; every symbolic token a parameter schema declares must have a
    resolution rule in :data:`SYMBOLIC_VALUES`, checked when the class
    is decorated — so a bad registration fails at import time, not
    mid-run.
    """
    decorator = _VARIANTS.register(name, replace=replace)
    if not name.isidentifier() or name == "ideal":
        raise ConfigError(
            f"variant name {name!r} is not expressible in the variant-"
            f"string grammar: use a Python-identifier shape "
            f"(underscores, no ':'/'='/','/'-') other than the "
            f"reserved alias 'ideal'")
    return decorator


def __getattr__(name: str):
    # PEP 562: VARIANT_KINDS used to be a hardcoded tuple; it is now a
    # live view of the registry so user registrations appear in it.
    if name == "VARIANT_KINDS":
        return tuple(sorted(_VARIANTS.entries))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_UNSET = object()


@dataclass(frozen=True, init=False)
class VariantSpec:
    """Which atomic adapter guards each memory bank.

    A validated ``(kind, params)`` value object: ``kind`` names a
    registered :class:`AtomicVariant` and ``params`` is the full
    parameter set (defaults filled in), frozen to sorted ``(key,
    value)`` pairs so specs stay hashable and comparable.  Parameters
    may hold symbolic values (``"half"``, ``"cores"``, ``"ideal"``)
    that :meth:`materialize` resolves for a concrete system size.
    """

    kind: str
    params: tuple = ()

    def __init__(self, kind: str, queue_slots=_UNSET, num_addresses=_UNSET,
                 params=_UNSET, **extra) -> None:
        plugin = get_variant(kind)
        raw = {}
        if params is not _UNSET and params is not None:
            raw.update(dict(params))
        if queue_slots is not _UNSET:
            raw["queue_slots"] = queue_slots
        if num_addresses is not _UNSET:
            raw["num_addresses"] = num_addresses
        raw.update(extra)
        merged = plugin.fill_defaults(raw)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", tuple(sorted(merged.items())))

    # -- factories ------------------------------------------------------------

    @classmethod
    def amo(cls) -> "VariantSpec":
        """Plain RV32A atomics only."""
        return cls(kind="amo")

    @classmethod
    def lrsc(cls) -> "VariantSpec":
        """MemPool-style single-slot LR/SC."""
        return cls(kind="lrsc")

    @classmethod
    def lrsc_table(cls) -> "VariantSpec":
        """ATUN-style per-core reservation table (§II related work)."""
        return cls(kind="lrsc_table")

    @classmethod
    def lrsc_bank(cls) -> "VariantSpec":
        """GRVI-style bank-granularity reservations (§II related work)."""
        return cls(kind="lrsc_bank")

    @classmethod
    def lrscwait(cls, queue_slots: int) -> "VariantSpec":
        """Centralized LRSCwait with a ``queue_slots``-entry queue."""
        return cls(kind="lrscwait", queue_slots=queue_slots)

    @classmethod
    def lrscwait_ideal(cls) -> "VariantSpec":
        """LRSCwait with one queue slot per core (physically infeasible
        at MemPool scale, the paper's upper bound)."""
        return cls(kind="lrscwait", queue_slots=None)

    @classmethod
    def colibri(cls, num_addresses: int = 4) -> "VariantSpec":
        """Distributed Colibri queue with ``num_addresses`` queues/bank."""
        return cls(kind="colibri", num_addresses=num_addresses)

    # -- parameter access -----------------------------------------------------

    def params_dict(self) -> dict:
        """The full parameter set as a plain dict."""
        return dict(self.params)

    def get(self, key: str, default=None):
        """One parameter value (``default`` when the kind lacks it)."""
        return dict(self.params).get(key, default)

    @property
    def queue_slots(self):
        """lrscwait: reservation-queue capacity per bank (None = #cores)."""
        return self.get("queue_slots")

    @property
    def num_addresses(self):
        """colibri: head/tail register pairs (tracked addresses) per bank."""
        return self.get("num_addresses", 4)

    # -- registry delegation ---------------------------------------------------

    @property
    def plugin(self) -> AtomicVariant:
        """The registered :class:`AtomicVariant` behind this spec."""
        return get_variant(self.kind)

    @property
    def supports_lrsc(self) -> bool:
        """True when plain LR/SC are legal on this variant."""
        return self.plugin.supports_lrsc

    @property
    def supports_wait(self) -> bool:
        """True when LRwait/SCwait/Mwait are legal on this variant."""
        return self.plugin.supports_wait

    @property
    def native_method(self) -> str:
        """The RMW update method this hardware is built for.

        The default a workload uses when no method is requested:
        ``amoadd`` on AMO-only hardware, LR/SC retry loops on the LR/SC
        family, LRwait/SCwait on wait-capable units.
        """
        return self.plugin.native_method

    def label(self) -> str:
        """Short human-readable name used in result tables."""
        return self.plugin.label(self.params_dict())

    # -- materialization -------------------------------------------------------

    def resolved(self, num_cores: int) -> dict:
        """Parameters with symbolic values resolved for ``num_cores``."""
        return self.plugin.resolve(self.params_dict(), num_cores)

    def materialize(self, num_cores: int) -> "VariantSpec":
        """A copy with every symbolic parameter value made concrete."""
        return VariantSpec(kind=self.kind, params=self.resolved(num_cores))


# -- built-in variants (the paper's Fig. 1 + §II comparators) ------------------


@register_variant("amo")
class AmoVariant(AtomicVariant):
    """Only the RV32A single-instruction atomics (the paper's *Atomic
    Add* roofline); LR/SC and wait ops are unsupported."""

    description = "plain RV32A atomics only (Atomic Add roofline)"
    native_method = "amo"

    def make_adapter(self, controller, params, num_cores, strict):
        return AmoAdapter(controller)

    def label(self, params):
        return "AtomicAdd"


@register_variant("lrsc")
class LrscVariant(AtomicVariant):
    """MemPool's lightweight LR/SC: a single reservation slot per bank,
    stolen by any newer LR (paper §II).  Retry-prone under contention."""

    description = "MemPool-style single reservation slot per bank"
    supports_lrsc = True
    native_method = "lrsc"

    def make_adapter(self, controller, params, num_cores, strict):
        return LrscAdapter(controller)

    def label(self, params):
        return "LRSC"

    def tile_area_kge(self, params, num_cores, banks=None, cores=None):
        from ..power.area import LRSC_SLOT_KGE, TILE_BANKS
        return (banks or TILE_BANKS) * LRSC_SLOT_KGE


@register_variant("lrsc_table")
class LrscTableVariant(AtomicVariant):
    """ATUN/Rocket-style per-core reservation table (§II related work):
    non-blocking LR/SC, but storage scales with the core count."""

    description = "ATUN-style per-core reservation table (non-blocking)"
    supports_lrsc = True
    native_method = "lrsc"

    def make_adapter(self, controller, params, num_cores, strict):
        return LrscTableAdapter(controller)

    def label(self, params):
        return "LRSC_table"

    def tile_area_kge(self, params, num_cores, banks=None, cores=None):
        # One address-wide entry per core per bank — the storage-
        # scaling problem (§II) that motivates Colibri.
        from ..power.area import LRSC_TABLE_ENTRY_KGE, TILE_BANKS
        return (banks or TILE_BANKS) * num_cores * LRSC_TABLE_ENTRY_KGE


@register_variant("lrsc_bank")
class LrscBankVariant(AtomicVariant):
    """GRVI-style bank-granularity reservations (§II related work):
    one bit per core per bank, spurious SC failures on any store."""

    description = "GRVI-style bank-granularity reservations (1 bit/core)"
    supports_lrsc = True
    native_method = "lrsc"

    def make_adapter(self, controller, params, num_cores, strict):
        return LrscBankAdapter(controller)

    def label(self, params):
        return "LRSC_bank"

    def tile_area_kge(self, params, num_cores, banks=None, cores=None):
        from ..power.area import LRSC_BANK_BIT_KGE, TILE_BANKS
        return (banks or TILE_BANKS) * num_cores * LRSC_BANK_BIT_KGE


@register_variant("lrscwait")
class LrscWaitVariant(AtomicVariant):
    """The centralized reservation queue of §III-A/B with
    ``queue_slots`` entries per bank; ``None``/``"ideal"`` means one
    slot per core, i.e. LRSCwait\\ :sub:`ideal`."""

    description = "centralized reservation queue per bank (LRSCwait_q)"
    params = {
        "queue_slots": VariantParam(
            default=None, minimum=1, required=True,
            symbolic=("half", "cores", "ideal"), allow_none=True,
            example=8,
            doc="queue entries per bank (half/cores/ideal scale with "
                "the core count; ideal = one slot per core)"),
    }
    positional = "queue_slots"
    supports_wait = True
    native_method = "wait"

    def make_adapter(self, controller, params, num_cores, strict):
        slots = params["queue_slots"]
        if slots is None:
            slots = num_cores  # ideal: one slot per core can never fill
        return LrscWaitAdapter(controller, queue_slots=slots, strict=strict)

    def label(self, params):
        slots = params["queue_slots"]
        if slots is None:
            return "LRSCwait_ideal"
        return f"LRSCwait_{slots}"

    def string(self, params):
        slots = params["queue_slots"]
        if slots is None:
            return "lrscwait:ideal"
        return f"lrscwait:{slots}"

    def tile_area_kge(self, params, num_cores, banks=None, cores=None):
        from ..power.area import TILE_BASE_KGE, TILE_BANKS, lrscwait_tile
        slots = params["queue_slots"]
        if slots is None:
            slots = num_cores  # every bank sized for all cores: O(n^2)
        return lrscwait_tile(slots, banks=banks or TILE_BANKS).kge \
            - TILE_BASE_KGE


@register_variant("colibri")
class ColibriVariant(AtomicVariant):
    """The distributed linked-list implementation of §IV with
    ``num_addresses`` head/tail register pairs per controller."""

    description = "distributed Colibri queue (Qnodes + head/tail pairs)"
    params = {
        "num_addresses": VariantParam(
            default=4, minimum=1,
            doc="tracked addresses (head/tail register pairs) per bank"),
    }
    positional = "num_addresses"
    supports_wait = True
    native_method = "wait"

    def make_adapter(self, controller, params, num_cores, strict):
        return ColibriAdapter(controller,
                              num_addresses=params["num_addresses"],
                              strict=strict)

    def label(self, params):
        return "Colibri"

    def string(self, params):
        addresses = params["num_addresses"]
        if addresses == 4:
            return "colibri"
        return f"colibri:{addresses}"

    def tile_area_kge(self, params, num_cores, banks=None, cores=None):
        from ..power.area import TILE_BASE_KGE, TILE_BANKS, colibri_tile
        return colibri_tile(params["num_addresses"],
                            banks=banks or TILE_BANKS).kge - TILE_BASE_KGE
