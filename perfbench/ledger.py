"""The traced pass: per-layer host time and counts (``--trace 1``).

Two extra passes over the workload's units run after the timed ones:

* **spans** (first pass) from wrappers this module installs around
  public calls — ``Machine`` construction (``build_machine`` and
  composites' own builds), ``Machine.reset``, each workload's
  ``load``, ``Machine.run`` / ``run_for``, ``execute`` / composite
  ``Workload.run`` (one span per scenario point),
  ``EnergyModel.evaluate`` (collection), ``ResultCache.lookup_hash`` /
  ``store_hash`` and the campaign's ``write_journal``;
* **a cProfile fold** (second pass): every function's self time is
  charged to the layer (repro package) its source file belongs to.
  Standard-library and builtin self time goes to the repro layer that
  called it, split by the profiler's per-caller times (``heapq`` to
  ``engine``, ``json`` to ``dse``, ...).

Counts are deterministic: the simulator's own counters (``SimStats``)
read as each ``Machine.run`` returns, the campaign cache's
hit/miss/store counters, and span counts.  No ``src/`` file changes;
the wrappers are removed when the pass ends.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import statistics
import time

import repro
from repro.dse import campaign as campaign_module
from repro.eval.runner import ResultCache
from repro.machine import Machine
from repro.power.energy import EnergyModel
from repro.scenarios import batch as batch_module
from repro.scenarios import run as run_module
from repro.scenarios.registry import list_workloads

from units import is_composite

SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Package (first path component under ``repro/``) -> layer.
PACKAGE_LAYERS = {
    "engine": "engine", "interconnect": "interconnect", "cores": "cores",
    "arch": "arch", "algorithms": "algorithms", "sync": "algorithms",
    "workloads": "algorithms", "power": "power", "eval": "eval",
    "dse": "dse", "scenarios": "scenarios", "obs": "obs",
    "telemetry": "obs", "machine.py": "machine",
}
#: Single files that belong to another layer than their package.
FILE_LAYERS = {
    "engine/batch.py": "machine",            # the machine pool
    "memory/lrsc.py": "memory.lrsc",
    "memory/lrsc_variants.py": "memory.lrsc",
    "memory/lrscwait.py": "memory.lrscwait",
    "memory/colibri.py": "memory.colibri",
    # The base adapter *is* the RV32A unit (LW/SW/AMO) every variant
    # inherits; the AMO-only variant adds nothing to it.
    "memory/adapter.py": "memory.amo",
}

SELF_LAYERS = ["engine", "interconnect", "memory.controller", "memory.lrsc",
               "memory.lrscwait", "memory.colibri", "memory.amo", "cores",
               "arch", "algorithms", "machine", "power", "eval", "dse",
               "scenarios", "obs", "bench", "other"]

#: Per-layer metric name -> unit, in report order.
PER_LAYER = {
    "engine.events": "count", "engine.self_s": "s",
    "engine.ns_per_event": "ns",
    "interconnect.messages": "count", "interconnect.hops": "count",
    "interconnect.ingress_wait_cycles": "cycles",
    "interconnect.self_s": "s",
    "memory.bank_accesses": "count", "memory.bank_conflicts": "count",
    "memory.reservations_invalidated": "count",
    "memory.controller.self_s": "s", "memory.lrsc.self_s": "s",
    "memory.lrscwait.self_s": "s", "memory.colibri.self_s": "s",
    "memory.amo.self_s": "s",
    "cores.instructions": "count", "cores.sc_failures": "count",
    "cores.sc_success_ratio": "ratio", "cores.wait_rejections": "count",
    "cores.sleep_cycles": "cycles", "cores.stalled_cycles": "cycles",
    "cores.self_s": "s",
    "arch.self_s": "s", "algorithms.self_s": "s",
    "machine.build_s": "s", "machine.reset_s": "s",
    "machine.builds": "count", "machine.resets": "count",
    "machine.reuse_ratio": "ratio", "machine.self_s": "s",
    "power.collect_s": "s", "power.self_s": "s",
    "eval.cache_lookups": "count", "eval.cache_hit_ratio": "ratio",
    "eval.cache_lookup_s": "s", "eval.cache_stores": "count",
    "eval.cache_store_s": "s", "eval.self_s": "s",
    "dse.journal_writes": "count", "dse.journal_write_s": "s",
    "dse.journal_bytes": "bytes", "dse.self_s": "s",
    "scenarios.self_s": "s", "scenarios.points": "count",
    "scenarios.point_ms_p50": "ms", "scenarios.point_ms_p97": "ms",
    "obs.self_s": "s", "bench.self_s": "s", "other.self_s": "s",
    "trace.pass_s": "s", "trace.layer_sum_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: The layers' self times must add up to the profiled pass within
#: this share, or time is escaping the fold.
LAYER_SUM_TOLERANCE = 0.05

_STAT_FIELDS = ("events", "messages", "hops", "ingress_wait_cycles",
                "bank_accesses", "bank_conflicts",
                "reservations_invalidated", "instructions", "sc_failures",
                "sc_successes", "wait_rejections", "sleep_cycles",
                "stalled_cycles")


class Spans:
    """Wall-clock spans from wrappers around public calls."""

    def __init__(self) -> None:
        self.totals: dict = {}        # name -> [count, seconds]
        self.durations: dict = {}     # name -> [seconds] (point spans)
        self.counts = dict.fromkeys(_STAT_FIELDS, 0)
        self.journal_bytes = 0
        self._restore: list = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             keep: bool = False) -> None:
        """Replace ``owner.attr`` by a timing wrapper; ``before(args)``
        returns a context that ``after(args, context, result)`` gets."""
        original = owner.__dict__[attr]
        totals = self.totals.setdefault(name, [0, 0.0])
        durations = self.durations.setdefault(name, []) if keep else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            context = before(args) if before is not None else None
            start = clock()
            result = original(*args, **kwargs)
            elapsed = clock() - start
            totals[0] += 1
            totals[1] += elapsed
            if durations is not None:
                durations.append(elapsed)
            if after is not None:
                after(args, context, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        self.wrap(Machine, "__init__", "machine.build")
        self.wrap(Machine, "reset", "machine.reset")
        for method in ("run", "run_for"):
            self.wrap(Machine, method, "machine.run",
                      before=self._run_started, after=self._run_finished)
        for _name, workload in list_workloads():
            workload_cls = type(workload)
            if "load" in workload_cls.__dict__:
                self.wrap(workload_cls, "load", "scenarios.load")
            if is_composite(workload) and "run" in workload_cls.__dict__:
                self.wrap(workload_cls, "run", "scenarios.point",
                          keep=True)
        self.wrap(run_module, "execute", "scenarios.point", keep=True)
        self.wrap(batch_module, "execute", "scenarios.point", keep=True)
        self.wrap(EnergyModel, "evaluate", "power.collect")
        self.wrap(ResultCache, "lookup_hash", "eval.cache_lookup")
        self.wrap(ResultCache, "store_hash", "eval.cache_store")
        self.wrap(campaign_module, "write_journal", "dse.journal_write",
                  after=self._journal_written)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @staticmethod
    def _run_started(args):
        # Where the event stream starts: the kernel's sequence counter
        # and its pending queue.
        sim = args[0].sim
        return _scheduled(sim), sim.pending_events

    def _run_finished(self, args, context, _result) -> None:
        machine = args[0]
        sim = machine.sim
        scheduled, pending = context
        counts = self.counts
        counts["events"] += ((_scheduled(sim) - scheduled)
                             - (sim.pending_events - pending))
        stats = machine.stats
        network = stats.network
        counts["messages"] += network.total_messages
        counts["hops"] += network.hops
        counts["ingress_wait_cycles"] += network.ingress_wait_cycles
        for bank in stats.banks:
            counts["bank_accesses"] += bank.accesses
            counts["bank_conflicts"] += bank.conflicts
            counts["reservations_invalidated"] += \
                bank.reservations_invalidated
        for core in stats.cores:
            counts["instructions"] += core.instructions
            counts["sc_failures"] += core.sc_failures
            counts["sc_successes"] += core.sc_successes
            counts["wait_rejections"] += core.wait_rejections
            counts["sleep_cycles"] += core.sleep_cycles
            counts["stalled_cycles"] += core.stalled_cycles

    def _journal_written(self, _args, _context, path) -> None:
        self.journal_bytes += os.path.getsize(path)


def _scheduled(sim) -> int:
    """Events scheduled so far, from the kernel's sequence counter.

    Raises when the kernel keeps no such counter: ``engine.events``
    read as 0 would look like a perfect improvement."""
    counter = getattr(getattr(sim, "_queue", None), "_counter", None)
    text = repr(counter)
    if not text.startswith("count("):
        raise RuntimeError(
            f"cannot count events: the kernel's sequence counter is "
            f"{text}, not an itertools.count")
    return int(text[len("count("):-1])


def _layer_of(filename: str):
    """The layer of a profiled function's source file; ``None`` for the
    standard library and builtins."""
    path = os.path.abspath(filename) if filename[:1] not in "~<" \
        else filename
    if path.startswith(BENCH_DIR + os.sep):
        return "bench"
    if not path.startswith(SRC_REPRO + os.sep):
        return None
    rel = os.path.relpath(path, SRC_REPRO).replace(os.sep, "/")
    if rel in FILE_LAYERS:
        return FILE_LAYERS[rel]
    top = rel.split("/")[0]
    if top == "memory":
        return "memory.controller"
    return PACKAGE_LAYERS.get(top, "other")


def fold(profile_stats: dict) -> dict:
    """Self seconds per layer; non-repro self time goes to callers."""
    layer_memo: dict = {}
    shares_memo: dict = {}

    def shares(func, visiting):
        if func in shares_memo:
            return shares_memo[func]
        if func[0] not in layer_memo:
            layer_memo[func[0]] = _layer_of(func[0])
        layer = layer_memo[func[0]]
        if layer is not None:
            return {layer: 1.0}
        callers = profile_stats.get(func, (0, 0, 0, 0, {}))[4]
        weights = {caller: entry[2] for caller, entry in callers.items()
                   if caller not in visiting}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: entry[1] for caller, entry in callers.items()
                       if caller not in visiting}
            total = sum(weights.values())
        if total <= 0:
            result = {"other": 1.0}
        else:
            result = {}
            for caller, weight in weights.items():
                for name, part in shares(caller, visiting | {func}).items():
                    result[name] = result.get(name, 0.0) \
                        + part * weight / total
        if not visiting:
            shares_memo[func] = result
        return result

    totals = dict.fromkeys(SELF_LAYERS, 0.0)
    for func, (_cc, _nc, self_time, _ct, _callers) in profile_stats.items():
        for name, part in shares(func, frozenset()).items():
            totals[name] = totals.get(name, 0.0) + self_time * part
    return totals


def _one_pass(bench, gate, profiler=None) -> tuple:
    """Every unit once; returns (host seconds, caches the units used)."""
    elapsed = 0.0
    caches = []
    for unit in bench.units:
        call = bench.start(unit)
        if getattr(bench, "cache", None) is not None:
            caches.append(bench.cache)
        gc.collect()
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            output = call()
        except Exception as exc:                  # counted by the gate
            output = exc
        finally:
            if profiler is not None:
                profiler.disable()
            elapsed += time.perf_counter() - start
        gate(unit, output)
    return elapsed, caches


def traced_pass(bench, gate, untraced_wall: float) -> dict:
    """The per-layer metrics (see :data:`PER_LAYER`) of two extra
    passes: one with spans only (boundary times and counts, close to
    untraced cost) and one under cProfile (the layer fold)."""
    spans = Spans()
    spans.install()
    try:
        _elapsed, caches = _one_pass(bench, gate)
    finally:
        spans.remove()
    profiler = cProfile.Profile()
    traced_s, _caches = _one_pass(bench, gate, profiler)
    layers = fold(pstats.Stats(profiler).stats)
    metrics = ledger_metrics(spans, layers, caches, traced_s, untraced_wall)
    layer_sum = metrics["trace.layer_sum_ratio"]["value"]
    if abs(layer_sum - 1.0) > LAYER_SUM_TOLERANCE:
        gate.fail(bench.points_per_unit * len(bench.units),
                  f"trace: layer self times sum to {layer_sum:.3f} of "
                  f"the profiled pass, outside 1 +- "
                  f"{LAYER_SUM_TOLERANCE}")
    return metrics


def ledger_metrics(spans, layers, caches, traced_s, untraced_s) -> dict:
    counts = spans.counts

    def total(name):
        return spans.totals.get(name, [0, 0.0])

    def ratio(part, whole):
        return part / whole if whole else 0.0

    builds, build_s = total("machine.build")
    resets, reset_s = total("machine.reset")
    lookups, lookup_s = total("eval.cache_lookup")
    stores, store_s = total("eval.cache_store")
    writes, write_s = total("dse.journal_write")
    points_ms = sorted(d * 1000.0
                       for d in spans.durations.get("scenarios.point", []))
    hits = sum(cache.hits for cache in caches)
    events = counts["events"]
    values = {
        "engine.events": events,
        "engine.ns_per_event": ratio(layers["engine"] * 1e9, events),
        "interconnect.messages": counts["messages"],
        "interconnect.hops": counts["hops"],
        "interconnect.ingress_wait_cycles": counts["ingress_wait_cycles"],
        "memory.bank_accesses": counts["bank_accesses"],
        "memory.bank_conflicts": counts["bank_conflicts"],
        "memory.reservations_invalidated":
            counts["reservations_invalidated"],
        "cores.instructions": counts["instructions"],
        "cores.sc_failures": counts["sc_failures"],
        "cores.sc_success_ratio": ratio(
            counts["sc_successes"],
            counts["sc_successes"] + counts["sc_failures"]),
        "cores.wait_rejections": counts["wait_rejections"],
        "cores.sleep_cycles": counts["sleep_cycles"],
        "cores.stalled_cycles": counts["stalled_cycles"],
        "machine.build_s": build_s, "machine.reset_s": reset_s,
        "machine.builds": builds, "machine.resets": resets,
        "machine.reuse_ratio": ratio(resets, builds + resets),
        "power.collect_s": total("power.collect")[1],
        "eval.cache_lookups": lookups,
        "eval.cache_hit_ratio": ratio(hits, lookups),
        "eval.cache_lookup_s": lookup_s,
        "eval.cache_stores": stores, "eval.cache_store_s": store_s,
        "dse.journal_writes": writes, "dse.journal_write_s": write_s,
        "dse.journal_bytes": spans.journal_bytes,
        "scenarios.points": len(points_ms),
        "scenarios.point_ms_p50": (statistics.median(points_ms)
                                   if points_ms else 0.0),
        "scenarios.point_ms_p97": (
            points_ms[min(len(points_ms) - 1,
                          int(0.97 * len(points_ms)))]
            if points_ms else 0.0),
        "trace.pass_s": traced_s,
        "trace.layer_sum_ratio": ratio(sum(layers.values()), traced_s),
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }
    for layer in SELF_LAYERS:
        values[f"{layer}.self_s"] = layers[layer]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}
