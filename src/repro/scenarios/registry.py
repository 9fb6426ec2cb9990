"""The workload registry.

A *workload* packages everything a :class:`~repro.scenarios.spec.
ScenarioSpec` needs beyond the machine itself: default parameters,
kernel construction, verification, and result extraction.  Workloads
register under a name with the :func:`register_workload` decorator::

    @register_workload("histogram")
    class HistogramWorkload(Workload):
        params = {"bins": 16, "updates_per_core": 8}
        def load(self, machine, spec):
            ...
            return LoadedWorkload(verify=..., finish=...)

and are looked up by :func:`get_workload` when a spec runs.  User code
registers its own workloads exactly the same way (see
``examples/custom_scenario.py``); nothing distinguishes built-ins.

:class:`WorkloadSpec` is the structural protocol a registered class
must satisfy; :class:`Workload` is the convenience base class that
implements the common run template (build machine → load → run mode →
verify → collect) so most workloads only write :meth:`Workload.load`.
Composite experiments that need full control of execution (e.g. the
paired baseline/interfered interference measurement) override
:meth:`Workload.run` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence, runtime_checkable

from ..engine.errors import ConfigError
from ..registry import Registry


class UnknownWorkloadError(ConfigError):
    """A spec named a workload that is not registered."""


@dataclass
class LoadedWorkload:
    """What :meth:`Workload.load` hands back to the run template.

    * ``watched`` — core ids whose completion ends a ``mode="watched"``
      run (``None`` if the workload does not support that mode);
    * ``verify`` — correctness check, called after completion runs
      (horizon/watched runs freeze kernels mid-flight, so invariants
      that assume full completion are skipped there);
    * ``finish`` — ``finish(stats) -> (point, metrics)`` builds the
      workload's native result object (may be ``None``) plus a dict of
      scalar metrics for generic rendering.
    """

    watched: Optional[Sequence[int]] = None
    verify: Optional[Callable[[], None]] = None
    finish: Optional[Callable] = None


@runtime_checkable
class WorkloadSpec(Protocol):
    """Structural interface of a registered workload."""

    name: str
    description: str
    #: Default workload parameters; spec ``params`` must be a subset.
    params: dict

    def load(self, machine, spec) -> LoadedWorkload:
        """Allocate data, attach kernels; return the run hooks."""
        ...

    def run(self, spec):
        """Execute the spec end-to-end, returning a ScenarioResult."""
        ...


class Workload:
    """Base class implementing the standard scenario run template."""

    name: str = ""
    description: str = ""
    #: Default workload parameters (every legal param key appears here).
    params: dict = {}
    #: Spec-level field defaults for :func:`default_spec` (e.g. a
    #: workload that wants an odd tile shape or a specific variant).
    spec_defaults: dict = {}
    #: Tiny overrides (spec fields or params) for CI smoke runs.
    smoke: dict = {}
    #: Names of the extra scalar metrics this workload's ``finish``
    #: attaches to every result (beyond the universal scalars and the
    #: named ``METRICS`` extractors).  Declarative so consumers that
    #: must fail fast — the DSE campaign validates objective metrics
    #: before paying for a single simulation — can know the full
    #: metric vocabulary without running anything.
    extra_metrics: tuple = ()

    def resolve_params(self, spec) -> dict:
        """Defaults merged with the spec's overrides; rejects unknowns."""
        overrides = spec.params_dict()
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise ConfigError(
                f"unknown params {unknown} for workload {self.name!r}; "
                f"accepted: {sorted(self.params)}")
        merged = dict(self.params)
        merged.update(overrides)
        return merged

    def load(self, machine, spec) -> LoadedWorkload:
        raise NotImplementedError(
            f"workload {self.name!r} does not implement load()")

    def run(self, spec):
        from .run import execute                  # late: avoid cycle
        return execute(self, spec)


#: name -> workload instance (workloads are stateless; per-run state
#: lives in :meth:`Workload.load` closures).
_WORKLOADS = Registry("workload", UnknownWorkloadError, instantiate=True)
register_workload = _WORKLOADS.register
unregister_workload = _WORKLOADS.unregister
get_workload = _WORKLOADS.get
list_workloads = _WORKLOADS.items
