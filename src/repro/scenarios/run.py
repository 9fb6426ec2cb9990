"""Executing scenario specs.

The spec layer's verbs:

* :func:`build_machine` — the :class:`~repro.machine.Machine` a spec
  describes (shape + variant + seed), with no kernels loaded;
* :func:`run_scenario` — one spec to one :class:`ScenarioResult`;
* :func:`run_scenarios` — many independent specs: the one path every
  batch of points runs through.  Each spec is looked up once in a
  :class:`~repro.eval.runner.ResultCache` keyed by
  :func:`scenario_cache_key`; :func:`simulate` shards the misses across
  a worker pool (deterministic: results are identical for any
  ``jobs`` value) and stores them;
* :func:`sweep` — the cartesian product of axis overrides applied to a
  base spec (the engine behind ``repro sweep``).

``METRICS`` names the stat extractors a spec may request in its
``metrics`` field; workloads attach their own extras on top.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..engine.errors import ConfigError
from ..machine import Machine
from ..obs import OBS
from ..power.energy import EnergyModel
from .registry import get_workload
from .spec import ScenarioSpec

#: Sentinel for "not in the cache" (a cached result may be any object).
MISS = object()

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
    persist (see :func:`simulate`).
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
    if events is not None:
        spec_hash = spec.stable_hash()
        events.emit("point_started", spec_hash=spec_hash,
                    workload=spec.workload)
        OBS.current_point = spec_hash
    with OBS.span(spec.workload, cat="point", variant=spec.variant,
                  cores=spec.num_cores):
        result = get_workload(spec.workload).run(spec)
    if events is not None:
        OBS.points += 1
        OBS.current_point = None
    return result


def scenario_cache_key(spec: ScenarioSpec,
                       spec_hash: Optional[str] = None) -> str:
    """The :class:`~repro.eval.runner.ResultCache` hash key of a spec.

    :func:`run_scenarios` looks specs up and :func:`simulate` stores
    them under this key; the DSE campaign engine looks its proposals
    up with it too, to charge zero budget for cache hits, passing the
    ``spec.stable_hash()`` it already computed as ``spec_hash``.
    """
    return "scenario\x1f" + (spec_hash or spec.stable_hash())


def _pool_worker_init(events_file: str, enabled: bool,
                      parent_span) -> None:
    """Pool initializer when the parent has an event log open.

    Each worker opens its own appender, with its own heartbeat thread,
    on the parent's log (the control plane's ``events.jsonl`` or an
    enabled session's private log; the parent's handle inherited
    through fork would reuse its seq counter) and announces itself.
    Its top-level spans hang under ``parent_span``, the span open in
    the parent when the pool started.  The farewell is a
    :class:`multiprocessing.util.Finalize` hook — pool workers exit
    through ``os._exit``, which skips ``atexit`` but does run
    multiprocessing's registered finalizers — so a normal
    ``Pool.close()``/``join()`` (see :func:`simulate`) emits
    ``worker_exited`` and the final heartbeat, while only an abnormal
    death skips them: exactly the case heartbeats exist to expose.
    """
    from multiprocessing.util import Finalize
    OBS.enter_worker(enabled, parent_span)
    OBS.open_events(events_file, role="worker")
    OBS.events.emit("worker_spawned", role="worker")
    Finalize(None, _pool_worker_exit, exitpriority=100)


def _pool_worker_exit() -> None:
    if OBS.events is not None:
        OBS.events.emit("worker_exited", points=OBS.points)
    OBS.close_events()


def simulate(specs: Sequence[ScenarioSpec], jobs: int = 1,
             cache=None) -> list:
    """Simulate validated specs fresh and store each result in ``cache``.

    Results come back aligned with ``specs``.  ``jobs=1`` (or a single
    spec) runs serially in-process; otherwise the specs are sharded
    across a ``multiprocessing`` pool and reassembled in order, so the
    results are identical for any ``jobs``.  ``jobs=None``/``0`` uses
    every CPU.  Nothing is looked up: callers (:func:`run_scenarios`,
    the campaign engine) pass only the specs they found missing.
    Cached entries are stored without ``stats`` and ``telemetry``; the
    counters are flushed once per call.
    """
    from ..eval.runner import resolve_jobs
    specs = list(specs)
    if specs:
        jobs = resolve_jobs(jobs)
    if jobs == 1 or len(specs) <= 1:
        results = [_execute_spec(spec) for spec in specs]
    else:
        events = OBS.events
        initializer = initargs = None
        if events is not None:
            initializer = _pool_worker_init
            initargs = (events.path, OBS.enabled, OBS.current)
        with multiprocessing.Pool(processes=min(jobs, len(specs)),
                                  initializer=initializer,
                                  initargs=initargs or ()) as pool:
            results = pool.map(_execute_spec, specs, chunksize=1)
            if events is not None:
                # The ``with`` block terminates workers outright; a
                # close/join first lets their farewells (the
                # worker_exited event, final heartbeat) run.
                pool.close()
                pool.join()
    if cache is not None:
        for spec, result in zip(specs, results):
            # stats and telemetry are the bulky diagnostics; cached
            # entries keep only the scalars/point a sweep consumes.
            cache.store_hash(scenario_cache_key(spec),
                             dataclasses.replace(result, stats=None,
                                                 telemetry=None))
        cache.flush_counters()
    return results


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
    ``cache`` is a :class:`~repro.eval.runner.ResultCache`; each spec is
    looked up once under :func:`scenario_cache_key` (its
    :meth:`ScenarioSpec.stable_hash` plus the cache's source
    fingerprint), and only the misses go to :func:`simulate`, so
    editing a spec re-simulates exactly that point.

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
    specs = list(specs)
    for spec in specs:
        spec.validate()
    results = [MISS if cache is None
               else cache.lookup_hash(scenario_cache_key(spec), MISS)
               for spec in specs]
    pending = [index for index, hit in enumerate(results) if hit is MISS]
    computed = simulate([specs[index] for index in pending], jobs=jobs,
                        cache=cache)
    for index, result in zip(pending, computed):
        results[index] = result
    return results


def run_spec_grid(rows: Sequence[tuple], columns: Sequence,
                  make_spec: Callable, jobs: int = 1,
                  cache=None) -> dict:
    """Run a labelled grid of specs; returns ``{label: [result/column]}``.

    ``rows`` is ``[(label, row_spec), ...]`` and ``make_spec(row_spec,
    column)`` builds the :class:`ScenarioSpec` for one point; the
    figure sweeps share it so the label/column bookkeeping lives once.
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
