"""Memory subsystem: banks, port controllers, and atomic-unit variants.

Variants are an open registry (:func:`register_variant`); importing
this package registers the paper's six built-ins plus the
:mod:`~repro.memory.extra_variants` demonstration pair.
"""

from .adapter import AmoAdapter, AtomicAdapter
from .bank import SpmBank
from .colibri import ColibriAdapter
from .controller import BankController, adapter_factory
from .lrsc import LrscAdapter
from .lrsc_variants import LrscBankAdapter, LrscTableAdapter
from .lrscwait import LrscWaitAdapter
from .variants import (
    AtomicVariant,
    UnknownVariantError,
    VariantParam,
    VariantSpec,
    get_variant,
    list_variants,
    register_variant,
    unregister_variant,
)

# Imported only for its registration side effect (exactly like the
# built-in workloads in repro.scenarios); nothing here references its
# classes, so removing the module removes the variants and nothing else.
from . import extra_variants as _extra_variants  # noqa: E402,F401

__all__ = [
    "AmoAdapter",
    "AtomicAdapter",
    "AtomicVariant",
    "SpmBank",
    "ColibriAdapter",
    "BankController",
    "adapter_factory",
    "LrscAdapter",
    "LrscBankAdapter",
    "LrscTableAdapter",
    "LrscWaitAdapter",
    "UnknownVariantError",
    "VARIANT_KINDS",
    "VariantParam",
    "VariantSpec",
    "get_variant",
    "list_variants",
    "register_variant",
    "unregister_variant",
]


def __getattr__(name: str):
    # VARIANT_KINDS is a live view of the registry (PEP 562), so user
    # registrations appear in it; delegate to the variants module.
    if name == "VARIANT_KINDS":
        from . import variants
        return variants.VARIANT_KINDS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
