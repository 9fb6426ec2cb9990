"""The paper manifest: the evaluation of §V as one ordered list.

The paper evaluates six experiments: Tables I–II and Figs. 3–6.
:data:`EXPERIMENTS` lists them once, in the paper's order, as
``name -> run(scale, jobs, cache)``; each ``run`` returns a result with
``render()`` (the text table) and ``to_dict()`` (the JSON document).
``repro reproduce`` and :func:`~repro.eval.export.export_all` both
iterate it; ``repro reproduce --only NAME`` runs the one entry ``NAME``.

A :class:`Scale` holds everything that sizes a reproduction; :data:`CI`
is the default and :data:`FULL` the paper's 256-core MemPool instance.
``jobs``/``cache`` shard and memoize the simulated points (see
:func:`repro.scenarios.run.run_scenarios`); results are identical for
any ``jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fig3 import run_fig3
from .fig4 import run_fig4
from .fig5 import run_fig5
from .fig6 import run_fig6
from .table1 import run_table1
from .table2 import run_table2

#: Fig. 5 never runs below this many cores.
FIG5_MIN_CORES = 128


@dataclass(frozen=True)
class Scale:
    """The size of one reproduction."""

    cores: int
    updates_per_core: int
    fig5_cores: int

    @classmethod
    def at(cls, cores: int, updates_per_core: int = 8,
           fig5_cores: Optional[int] = None) -> "Scale":
        """``cores`` for Table II and Figs. 3, 4 and 6; Fig. 5 at
        ``fig5_cores``, by default ``cores`` but at least
        :data:`FIG5_MIN_CORES`."""
        return cls(cores, updates_per_core,
                   fig5_cores or max(cores, FIG5_MIN_CORES))


#: ``repro reproduce``'s default scale.
CI = Scale.at(64)
#: ``repro reproduce --full``: the paper's 256 cores.
FULL = Scale.at(256)

#: The six experiments in the paper's order.
EXPERIMENTS = {
    "table1": lambda scale, jobs, cache: run_table1(),
    "table2": lambda scale, jobs, cache: run_table2(
        num_cores=scale.cores, updates_per_core=scale.updates_per_core,
        jobs=jobs, cache=cache),
    "fig3": lambda scale, jobs, cache: run_fig3(
        num_cores=scale.cores, updates_per_core=scale.updates_per_core,
        jobs=jobs, cache=cache),
    "fig4": lambda scale, jobs, cache: run_fig4(
        num_cores=scale.cores, updates_per_core=scale.updates_per_core,
        jobs=jobs, cache=cache),
    "fig5": lambda scale, jobs, cache: run_fig5(
        num_cores=scale.fig5_cores, jobs=jobs, cache=cache),
    "fig6": lambda scale, jobs, cache: run_fig6(
        max_cores=scale.cores, jobs=jobs, cache=cache),
}
