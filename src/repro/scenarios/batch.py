"""Re-exports :func:`~repro.scenarios.run.execute` under its old module.

``perfbench/ledger.py`` imports this module and wraps ``execute`` here
by name.  The module exists only for that ledger and is deleted when
ROADMAP item 1 ports the ledger.
"""

from .run import execute

__all__ = ["execute"]
