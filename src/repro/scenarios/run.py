"""Executing scenario specs.

The spec layer's verbs:

* :func:`build_machine` — the :class:`~repro.machine.Machine` a spec
  describes (shape + variant + seed), with no kernels loaded;
* :func:`run_scenario` — one spec to one :class:`ScenarioResult`;
* :func:`run_scenarios` — many independent specs, sharded across a
  worker pool exactly like the figure sweeps (deterministic: results
  are identical for any ``jobs`` value) and memoized in a
  :class:`~repro.eval.runner.ResultCache` keyed by
  :meth:`~repro.scenarios.spec.ScenarioSpec.stable_hash`;
* :func:`sweep` — the cartesian product of axis overrides applied to a
  base spec (the engine behind ``repro sweep``).

``METRICS`` names the stat extractors a spec may request in its
``metrics`` field; workloads attach their own extras on top.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..engine.errors import ConfigError
from ..machine import Machine
from ..obs import OBS
from ..power.energy import EnergyModel
from .registry import get_workload
from .spec import ScenarioSpec

#: Metric name -> extractor over a finished run's SimStats.  These are
#: the scalars a spec can ask for by name in ``ScenarioSpec.metrics``.
METRICS = {
    "cycles": lambda stats: stats.cycles,
    "throughput": lambda stats: stats.throughput,
    "messages": lambda stats: stats.network.total_messages,
    "hops": lambda stats: stats.network.hops,
    "ingress_wait_cycles": lambda stats: stats.network.ingress_wait_cycles,
    "ops": lambda stats: sum(c.ops_completed for c in stats.cores),
    "sc_failures": lambda stats: stats.total_sc_failures,
    "wait_rejections": lambda stats: sum(c.wait_rejections
                                         for c in stats.cores),
    "sleep_cycles": lambda stats: stats.total_sleep_cycles,
    "active_cycles": lambda stats: stats.total_active_cycles,
    "energy_pj_per_op": lambda stats: EnergyModel().evaluate(stats).pj_per_op,
    "power_mw": lambda stats: EnergyModel().evaluate(stats).power_mw(),
}

#: Spec-level keys (and CLI aliases) recognized by ``apply_settings``;
#: anything else routes to the workload's params.
_SPEC_FIELD_ALIASES = {
    "cores": "num_cores",
    "num_cores": "num_cores",
    "cores_per_tile": "cores_per_tile",
    "banks_per_tile": "banks_per_tile",
    "words_per_bank": "words_per_bank",
    "num_groups": "num_groups",
    "variant": "variant",
    "mode": "mode",
    "horizon": "horizon",
    "seed": "seed",
    "metrics": "metrics",
}


@dataclass
class ScenarioResult:
    """One executed scenario point.

    ``point`` carries the workload's native result object when it has
    one (:class:`~repro.eval.points.HistogramPoint`,
    :class:`~repro.eval.points.QueuePoint`, ...), which is how the
    figure runners stay bit-identical to their pre-spec selves.
    ``stats`` is the full counter set for diagnostics; it is ``None``
    for composite workloads that run several machines *and on results
    served from a cache* — the per-core/per-bank lists dwarf the
    scalars the runners actually consume, so only ``point``/``metrics``
    persist (see :func:`run_scenarios`).
    """

    spec: ScenarioSpec
    cycles: int
    throughput: float
    messages: int
    active_cycles: int
    sleep_cycles: int
    metrics: dict = field(default_factory=dict)
    point: object = None
    stats: object = None
    #: :class:`~repro.telemetry.report.TelemetryReport` when the run was
    #: probed (see :func:`run_scenario`); never persisted in caches.
    telemetry: object = None

    def scalars(self) -> dict:
        """Headline numbers + extras, for tables and JSON output."""
        merged = {
            "cycles": self.cycles,
            "throughput": self.throughput,
            "messages": self.messages,
            "active_cycles": self.active_cycles,
            "sleep_cycles": self.sleep_cycles,
        }
        merged.update(self.metrics)
        return merged


def build_machine(spec: ScenarioSpec, **machine_kwargs) -> Machine:
    """The machine a spec describes (no kernels loaded yet)."""
    return Machine(spec.system_config(), spec.variant_spec(),
                   seed=spec.seed, **machine_kwargs)


class _ProbeRequest:
    """Probes queued by :func:`run_scenario` for the next template run.

    Threading a ``probes`` argument through every registered workload's
    ``run`` would break third-party workload signatures, so the request
    rides a module-level stack instead: :func:`execute` (the standard
    template) consumes it when it builds the machine.  Composite
    workloads that bypass the template never consume it, which
    :func:`run_scenario` turns into a clear error.
    """

    def __init__(self, probes) -> None:
        self.probes = list(probes)
        self.consumed = False

    def take(self) -> list:
        self.consumed = True
        return self.probes


_PROBE_STACK: list = []


def execute(workload, spec: ScenarioSpec) -> ScenarioResult:
    """The standard run template shared by every non-composite workload."""
    with OBS.span("build", cat="phase"):
        machine = build_machine(spec)
        loaded = workload.load(machine, spec)
        request = _PROBE_STACK[-1] if _PROBE_STACK else None
        probes = (machine.attach_probes(request.take())
                  if request is not None and not request.consumed else [])
    with OBS.span("run", cat="phase"):
        if spec.mode == "completion":
            stats = machine.run()
        elif spec.mode == "horizon":
            stats = machine.run_for(spec.horizon)
        else:  # watched
            if loaded.watched is None:
                raise ConfigError(
                    f"workload {spec.workload!r} provides no watched "
                    f"cores; mode='watched' is not available for it")
            stats = machine.run_until_finished(loaded.watched)
    with OBS.span("collect-stats", cat="phase"):
        if spec.mode == "completion" and loaded.verify is not None:
            loaded.verify()
        point, extra = (loaded.finish(stats) if loaded.finish is not None
                        else (None, {}))
        metrics = dict(extra)
        for name in spec.metrics:
            metrics[name] = METRICS[name](stats)
        telemetry = None
        if probes:
            from ..telemetry.report import TelemetryReport
            telemetry = TelemetryReport.collect(machine, probes, spec=spec)
    return ScenarioResult(
        spec=spec,
        cycles=stats.cycles,
        throughput=stats.throughput,
        messages=stats.network.total_messages,
        active_cycles=stats.total_active_cycles,
        sleep_cycles=stats.total_sleep_cycles,
        metrics=metrics,
        point=point,
        stats=stats,
        telemetry=telemetry)


def _execute_spec(spec: ScenarioSpec) -> ScenarioResult:
    """Module-level entry for pool workers (picklable by name)."""
    events = OBS.events
    monitor = OBS.heartbeat
    if events is not None or monitor is not None:
        spec_hash = spec.stable_hash()
        if events is not None:
            events.emit("point_started", spec_hash=spec_hash,
                        workload=spec.workload)
        if monitor is not None:
            monitor.point_started(
                spec_hash,
                last_seq=events.last_seq if events is not None else None)
    with OBS.span(spec.workload, cat="point", variant=spec.variant,
                  cores=spec.num_cores):
        result = get_workload(spec.workload).run(spec)
    if monitor is not None:
        monitor.point_finished(
            last_seq=events.last_seq if events is not None else None)
    return result


def scenario_cache_key(spec: ScenarioSpec) -> str:
    """The :class:`~repro.eval.runner.ResultCache` hash key of a spec.

    Exposed so schedulers layered on top (the DSE campaign engine) can
    ask "would this point be a cache hit?" — e.g. to charge zero budget
    for it — using exactly the key :func:`run_scenarios` will use.
    """
    return "scenario\x1f" + spec.stable_hash()


_cache_key = scenario_cache_key


def run_scenario(spec: ScenarioSpec, jobs: int = 1,
                 cache=None, probes=None) -> ScenarioResult:
    """Run one spec; ``jobs`` is accepted for interface symmetry with
    :func:`run_scenarios` (a single point always runs in-process).

    ``probes`` attaches telemetry probes (registered names or
    :class:`~repro.telemetry.probes.Probe` instances) to the run; the
    collected :class:`~repro.telemetry.report.TelemetryReport` arrives
    as ``result.telemetry``.  Probed runs always simulate fresh and
    in-process — telemetry is a diagnostic of *this* execution, so the
    result cache is deliberately bypassed and never polluted with probe
    data.  Only workloads using the standard run template support
    probes; composites (e.g. ``interference``) raise
    :class:`~repro.engine.errors.ConfigError`.
    """
    if probes:
        spec.validate()
        request = _ProbeRequest(probes)
        _PROBE_STACK.append(request)
        try:
            result = get_workload(spec.workload).run(spec)
        finally:
            _PROBE_STACK.pop()
        if not request.consumed:
            raise ConfigError(
                f"workload {spec.workload!r} runs outside the standard "
                f"template (composite measurement) and does not support "
                f"telemetry probes")
        return result
    return run_scenarios([spec], jobs=jobs, cache=cache)[0]


def run_scenarios(specs: Sequence[ScenarioSpec], jobs: int = 1,
                  cache=None, batch: bool = False) -> list:
    """Run independent specs, in order, optionally sharded and cached.

    Results come back aligned with ``specs`` and are identical for any
    ``jobs`` value (each scenario is a pure function of its spec).
    ``cache`` is a :class:`~repro.eval.runner.ResultCache`; entries are
    keyed by :meth:`ScenarioSpec.stable_hash` (plus the cache's source
    fingerprint), so editing a spec re-simulates exactly that point.

    With ``jobs > 1`` the worker processes re-import the registry, so
    only *importable* workloads resolve there: built-ins always do;
    workloads registered ad hoc in the driving process (e.g. inside a
    script's ``main``) must run with ``jobs=1``.

    ``batch`` is accepted for compatibility and has no effect: every
    point builds its machine fresh.

    Cached entries are stored without ``stats`` (the bulky diagnostic
    counters); every other field of a cache-served result is identical
    to the freshly-simulated one.
    """
    from ..eval.runner import ExperimentCall, run_experiments
    specs = list(specs)
    for spec in specs:
        spec.validate()
    miss = object()
    results: list = [None] * len(specs)
    pending = []
    if cache is not None:
        for index, spec in enumerate(specs):
            hit = cache.lookup_hash(_cache_key(spec), miss)
            if hit is miss:
                pending.append((index, spec))
            else:
                results[index] = hit
    else:
        pending = list(enumerate(specs))
    if not pending:
        if cache is not None:
            cache.flush_counters()
        return results
    calls = [ExperimentCall(_execute_spec, (spec,))
             for _index, spec in pending]
    computed = run_experiments(calls, jobs=jobs)
    for (index, spec), result in zip(pending, computed):
        results[index] = result
        if cache is not None:
            # stats and telemetry are the bulky diagnostics; cached
            # entries keep only the scalars/point a sweep consumes.
            cache.store_hash(_cache_key(spec),
                             dataclasses.replace(result, stats=None,
                                                 telemetry=None))
    if cache is not None:
        cache.flush_counters()
    return results


def run_spec_grid(rows: Sequence[tuple], columns: Sequence,
                  make_spec: Callable, jobs: int = 1,
                  cache=None) -> dict:
    """Run a labelled grid of specs; returns ``{label: [result/column]}``.

    ``rows`` is ``[(label, row_spec), ...]`` and ``make_spec(row_spec,
    column)`` builds the :class:`ScenarioSpec` for one point — the
    spec-level analogue of :func:`repro.eval.runner.run_grid`, shared
    by the figure sweeps so the label/column bookkeeping lives once.
    """
    rows = list(rows)
    columns = list(columns)
    specs = [make_spec(row_spec, column)
             for _label, row_spec in rows for column in columns]
    results = run_scenarios(specs, jobs=jobs, cache=cache)
    grid: dict = {}
    for index, (label, _row_spec) in enumerate(rows):
        start = index * len(columns)
        grid[label] = results[start:start + len(columns)]
    return grid


def default_spec(workload_name: str, **overrides) -> ScenarioSpec:
    """The registered workload's default spec, plus field overrides."""
    workload = get_workload(workload_name)
    fields = dict(workload.spec_defaults)
    fields.update(overrides)
    return ScenarioSpec(workload=workload_name, **fields)


def apply_settings(spec: ScenarioSpec, settings: dict) -> ScenarioSpec:
    """Layer ``key=value`` overrides onto a spec.

    Keys naming spec fields (``cores``/``num_cores``, ``variant``,
    ``seed``, ``mode``, ``horizon``, shape fields, ``metrics``) update
    the spec; ``variant.<param>`` keys rewrite one parameter of the
    spec's variant string (any registered variant's schema, see
    :func:`~repro.scenarios.spec.merge_variant_params`); every other
    key becomes a workload parameter override — unknown parameters are
    rejected when the spec validates.
    """
    spec_updates = {}
    variant_params = {}
    params = {}
    for key, value in settings.items():
        if key.startswith("variant.") and len(key) > len("variant."):
            variant_params[key[len("variant."):]] = value
            continue
        target = _SPEC_FIELD_ALIASES.get(key)
        if target == "metrics" and isinstance(value, str):
            value = tuple(name.strip() for name in value.split(",")
                          if name.strip())
        if target is not None:
            spec_updates[target] = value
        else:
            params[key] = value
    if variant_params:
        # Parameter overrides apply on top of a same-call ``variant``
        # key, so {"variant": "ticket", "variant.addresses": 8} works.
        from .spec import merge_variant_params
        base_variant = spec_updates.get("variant", spec.variant)
        spec_updates["variant"] = merge_variant_params(base_variant,
                                                       variant_params)
    if spec_updates:
        # replace(), not override(): an explicit ``field=none`` setting
        # must reset optional fields rather than be silently dropped.
        spec = dataclasses.replace(spec, **spec_updates)
    if params:
        spec = spec.with_params(**params)
    return spec


def sweep(base: ScenarioSpec, axes: dict, jobs: int = 1,
          cache=None, batch: bool = False) -> list:
    """Cartesian sweep over axis overrides; ``[(overrides, result)]``.

    ``axes`` maps setting keys (spec fields or workload params, as in
    :func:`apply_settings`) to value lists.  Points run through
    :func:`run_scenarios`, so they shard and cache like any sweep;
    ``batch`` is accepted for compatibility and has no effect.
    """
    if not axes:
        raise ConfigError("sweep needs at least one axis")
    keys = list(axes)
    combos = [dict(zip(keys, values))
              for values in itertools.product(*(axes[k] for k in keys))]
    specs = [apply_settings(base, combo) for combo in combos]
    results = run_scenarios(specs, jobs=jobs, cache=cache)
    return list(zip(combos, results))
