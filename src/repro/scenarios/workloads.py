"""Built-in registered workloads.

Four wrap the paper's kernels — ``histogram`` (Figs. 3/4, Table II),
``queue`` (Fig. 6), ``interference`` (Fig. 5) and ``matmul`` (Fig. 5's
victim, standalone) — and three extend the scenario space beyond the
paper:

* ``histogram_zipf`` — the histogram under a Zipf hot-spot stream:
  contention concentrates on a few bins even when many exist, the
  regime real aggregation workloads live in;
* ``pipeline`` — a producer → transform… → consumer chain through
  one-slot mailboxes, sleeping on Mwait (or polling, for comparison);
* ``barrier_storm`` — every core slams a sense-reversing central
  barrier for many rounds back-to-back, the broadcast-wakeup stress
  case for Mwait.

The new scenarios deliberately use *odd* tile shapes (2 or 3 cores per
tile) to exercise the relaxed :meth:`SystemConfig.scaled` overrides.
"""

from __future__ import annotations

import random

from ..algorithms.histogram import RMW_METHODS, Histogram
from ..algorithms.matmul import Matmul
from ..algorithms.mcs_queue import (
    QUEUE_METHODS, ConcurrentQueue, queue_worker_kernel)
from ..engine.errors import ConfigError
from ..eval.points import HistogramPoint, QueuePoint
from ..interconnect.messages import QUEUE_FULL
from ..power.energy import EnergyModel
from ..sync.backoff import FixedBackoff
from ..sync.barrier import CentralBarrier
from ..sync.locks import (
    AmoSpinLock,
    ColibriSpinLock,
    LrscSpinLock,
    MwaitMcsLock,
)
from ..workloads.interference import measure_interference
from ..workloads.streams import zipf_stream
from .registry import LoadedWorkload, Workload, register_workload
from .run import ScenarioResult
from .spec import ScenarioSpec, shape_from_config, variant_string

#: Lock classes by the spec-level lock parameter.
LOCK_CLASSES = {
    "amo": AmoSpinLock,
    "lrsc": LrscSpinLock,
    "colibri": ColibriSpinLock,
    "mcs": MwaitMcsLock,
}


def _resolve_method(method, variant) -> str:
    """``"native"``/``None`` means the variant's own RMW flavour."""
    if method in (None, "native"):
        return variant.native_method
    return method


def _check_method(method: str, methods: tuple, variant) -> None:
    """Reject ``method`` before anything is simulated unless it is one
    of the workload's ``methods`` that the variant's hardware can run:
    ``wait`` needs ``supports_wait`` and ``lrsc`` ``supports_lrsc``."""
    def runnable(name):
        return (name != "wait" or variant.supports_wait) and \
            (name != "lrsc" or variant.supports_lrsc)

    if method not in methods:
        raise ConfigError(f"unknown method {method!r}; accepted: "
                          f"{', '.join(methods)}")
    if not runnable(method):
        supported = [name for name in methods if runnable(name)]
        raise ConfigError(
            f"variant {variant_string(variant)!r} cannot run method "
            f"{method!r}; it supports: {', '.join(supported)}")


def _core_count(value, name: str, num_cores: int) -> int:
    """Validate a cores-subset parameter (``None`` = every core)."""
    if value is None:
        return num_cores
    if not isinstance(value, int) or isinstance(value, bool) or \
            not 1 <= value <= num_cores:
        raise ConfigError(
            f"{name}={value!r} must be an int in "
            f"1..{num_cores} (or None for all cores)")
    return value


def _attach_locks(histogram: Histogram, lock: str,
                  backoff_window: int) -> None:
    lock_cls = LOCK_CLASSES.get(lock)
    if lock_cls is None:
        raise ConfigError(f"unknown lock {lock!r}; "
                          f"accepted: {sorted(LOCK_CLASSES)}")
    if lock_cls is MwaitMcsLock:
        histogram.attach_locks(lock_cls)
    else:
        histogram.attach_locks(lock_cls,
                               backoff=FixedBackoff(backoff_window))


@register_workload("histogram")
class HistogramWorkload(Workload):
    """Contended histogram updates — the Figs. 3/4 and Table II kernel."""

    description = ("uniform-random atomic histogram updates; contention "
                   "set by the bin count (paper Figs. 3/4, Table II)")
    params = {
        "bins": 16,
        "updates_per_core": 8,
        #: "amo" | "lrsc" | "wait" | "lock" | "native" (variant's own).
        "method": "native",
        "lock": "amo",
        "lock_backoff_window": 128,
        #: Series label on the measured point (None = variant/method).
        "label": None,
    }
    spec_defaults = {"num_cores": 32, "variant": "colibri"}
    smoke = {"cores": 8, "bins": 2, "updates_per_core": 2}
    extra_metrics = ("pj_per_op", "sc_failures", "wait_rejections")

    def load(self, machine, spec: ScenarioSpec) -> LoadedWorkload:
        p = self.resolve_params(spec)
        method = _resolve_method(p["method"], machine.variant)
        _check_method(method, RMW_METHODS + ("lock",), machine.variant)
        histogram = Histogram(machine, p["bins"])
        if method == "lock":
            _attach_locks(histogram, p["lock"], p["lock_backoff_window"])
        machine.load_all(histogram.kernel_factory(method,
                                                  p["updates_per_core"]))
        expected = machine.config.num_cores * p["updates_per_core"]
        label = p["label"] or f"{machine.variant.label()}/{method}"

        def finish(stats):
            energy = EnergyModel().evaluate(stats)
            point = HistogramPoint(
                label=label,
                num_cores=machine.config.num_cores,
                num_bins=p["bins"],
                updates_per_core=p["updates_per_core"],
                cycles=stats.cycles,
                throughput=stats.throughput,
                sc_failures=stats.total_sc_failures,
                wait_rejections=sum(c.wait_rejections for c in stats.cores),
                sleep_cycles=stats.total_sleep_cycles,
                active_cycles=stats.total_active_cycles,
                messages=stats.network.total_messages,
                energy=energy)
            metrics = {"pj_per_op": point.pj_per_op,
                       "sc_failures": point.sc_failures,
                       "wait_rejections": point.wait_rejections}
            return point, metrics

        return LoadedWorkload(
            verify=lambda: histogram.verify(expected), finish=finish)


@register_workload("histogram_zipf")
class ZipfHistogramWorkload(Workload):
    """Hot-spot histogram: Zipf-distributed bins (non-paper scenario)."""

    description = ("histogram under a Zipf(exponent) hot-spot stream — "
                   "contention piles onto rank-1 bins even at high bin "
                   "counts (non-paper scenario)")
    params = {
        "bins": 64,
        "updates_per_core": 8,
        "exponent": 1.2,
        "method": "native",       # RMW only; locks not supported here
        "label": None,
    }
    spec_defaults = {"num_cores": 32, "variant": "colibri"}
    smoke = {"cores": 8, "bins": 8, "updates_per_core": 3}
    extra_metrics = ("hot_bin_share", "pj_per_op")

    def load(self, machine, spec: ScenarioSpec) -> LoadedWorkload:
        p = self.resolve_params(spec)
        method = _resolve_method(p["method"], machine.variant)
        if method == "lock":
            raise ConfigError(
                "histogram_zipf supports RMW methods only "
                "(amo/lrsc/wait); use the 'histogram' workload for locks")
        _check_method(method, RMW_METHODS, machine.variant)
        histogram = Histogram(machine, p["bins"])
        # Per-core deterministic hot-spot streams, precomputed so the
        # simulated kernel spends no host time drawing.
        streams = [
            list(zipf_stream(random.Random(spec.seed * 1_000_003 + core),
                             p["bins"], p["updates_per_core"],
                             exponent=p["exponent"]))
            for core in range(machine.config.num_cores)
        ]
        machine.load_all(histogram.stream_factory(streams, method))
        expected = machine.config.num_cores * p["updates_per_core"]

        def finish(stats):
            counts = histogram.counts()
            total = sum(counts) or 1
            return None, {"hot_bin_share": max(counts) / total,
                          "pj_per_op":
                              EnergyModel().evaluate(stats).pj_per_op}

        return LoadedWorkload(
            verify=lambda: histogram.verify(expected), finish=finish)


@register_workload("queue")
class QueueWorkload(Workload):
    """Concurrent MCS-style queue — the Fig. 6 kernel."""

    description = ("shared MCS-style linked queue, every active core "
                   "alternating enqueue/dequeue (paper Fig. 6)")
    params = {
        "method": "wait",         # "lrsc" | "wait" | "lock"
        "ops_per_core": 16,
        #: Cores using the queue (None = all; the system keeps its size).
        "active_cores": None,
        "label": None,
    }
    spec_defaults = {"num_cores": 16, "variant": "colibri"}
    smoke = {"cores": 8, "ops_per_core": 4}
    extra_metrics = ("jain_fairness", "fairness_band")

    def load(self, machine, spec: ScenarioSpec) -> LoadedWorkload:
        p = self.resolve_params(spec)
        active = _core_count(p["active_cores"], "active_cores",
                             machine.config.num_cores)
        ops = p["ops_per_core"]
        _check_method(p["method"], QUEUE_METHODS, machine.variant)
        queue = ConcurrentQueue(machine, p["method"],
                                nodes_per_core=ops // 2 + 2)
        machine.load_range(
            range(active),
            lambda api: queue_worker_kernel(queue, api, ops))
        label = p["label"] or f"queue/{p['method']}"

        def finish(stats):
            rates = []
            for core_id in range(active):
                finish_cycle = (machine.cores[core_id].finish_cycle
                                or stats.cycles)
                rates.append(stats.cores[core_id].ops_completed
                             / max(1, finish_cycle))
            total = sum(rates)
            jain = (total * total
                    / (len(rates) * sum(r * r for r in rates))
                    if total else 1.0)
            point = QueuePoint(
                label=label,
                num_cores=active,
                throughput=stats.throughput,
                cycles=stats.cycles,
                min_core_rate=min(rates),
                max_core_rate=max(rates),
                jain_fairness=jain)
            return point, {"jain_fairness": jain,
                           "fairness_band": point.fairness_band}

        return LoadedWorkload(finish=finish)


@register_workload("matmul")
class MatmulWorkload(Workload):
    """Blocked GEMM on interleaved arrays — Fig. 5's victim, standalone."""

    description = ("blocked matrix multiply over interleaved SPM arrays "
                   "(Fig. 5's interference victim, run alone)")
    params = {
        "dim": 8,
        #: Worker cores (None = all cores split the rows).
        "workers": None,
    }
    spec_defaults = {"num_cores": 16, "variant": "colibri"}
    smoke = {"cores": 8, "dim": 4}
    extra_metrics = ("macs", "workers")

    def load(self, machine, spec: ScenarioSpec) -> LoadedWorkload:
        p = self.resolve_params(spec)
        workers = _core_count(p["workers"], "workers",
                              machine.config.num_cores)
        matmul = Matmul(machine, p["dim"])
        matmul.fill_inputs()
        rows = matmul.partition_rows(workers)
        for worker, row_slice in enumerate(rows):
            machine.load(worker,
                         lambda api, r=row_slice:
                         matmul.worker_kernel(api, r))

        def finish(stats):
            return None, {"macs": p["dim"] ** 3,
                          "workers": workers}

        return LoadedWorkload(
            watched=list(range(workers)),
            verify=matmul.verify, finish=finish)


@register_workload("interference")
class InterferenceWorkload(Workload):
    """Matmul under atomic pollers — the paired Fig. 5 measurement.

    A composite scenario: the measurement is the *ratio* between a
    baseline run (workers alone) and an interfered run (workers plus
    endless pollers), so it overrides :meth:`Workload.run` instead of
    using the single-machine template.  ``mode`` is ignored — both
    runs watch the workers by construction.
    """

    description = ("matmul makespan with vs. without endless atomic "
                   "pollers sharing the system (paper Fig. 5); "
                   "a paired two-run measurement")
    params = {
        #: Pollers' RMW flavour: "amo" | "lrsc" | "wait" | "native"
        #: (the variant's own).
        "method": "native",
        "workers": 4,
        "bins": 1,
        "matmul_dim": 16,
    }
    spec_defaults = {"num_cores": 16, "variant": "lrsc"}
    smoke = {"cores": 16, "workers": 4, "matmul_dim": 4}
    extra_metrics = ("baseline_cycles", "interfered_cycles",
                     "relative_throughput")

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        p = self.resolve_params(spec)
        config, variant = spec.system_config(), spec.variant_spec()
        method = _resolve_method(p["method"], variant)
        _check_method(method, RMW_METHODS, variant)
        workers = _core_count(p["workers"], "workers", config.num_cores)
        result, stats = measure_interference(
            config, variant, method, workers, p["bins"],
            matmul_dim=p["matmul_dim"], seed=spec.seed)
        from .run import METRICS
        metrics = {
            "baseline_cycles": result.baseline_cycles,
            "interfered_cycles": result.interfered_cycles,
            "relative_throughput": result.relative_throughput,
        }
        for name in spec.metrics:
            metrics[name] = METRICS[name](stats)
        return ScenarioResult(
            spec=spec,
            cycles=result.interfered_cycles,
            throughput=stats.throughput,
            messages=stats.network.total_messages,
            active_cycles=stats.total_active_cycles,
            sleep_cycles=stats.total_sleep_cycles,
            metrics=metrics,
            point=result,
            stats=stats)


def interference_spec(config, variant, method: str, num_workers: int,
                      num_bins: int, matmul_dim: int = 16,
                      seed: int = 0) -> ScenarioSpec:
    """Spec equivalent of the legacy ``run_interference`` signature."""
    return ScenarioSpec(
        workload="interference",
        variant=variant_string(variant),
        params={"method": method, "workers": num_workers,
                "bins": num_bins, "matmul_dim": matmul_dim},
        seed=seed,
        **shape_from_config(config))


def _wait_until_changed(api, addr: int, expected: int, use_mwait: bool,
                        poll_window: int = 12):
    """Block until ``mem[addr] != expected``; return the new value.

    Mwait closes the check-then-sleep race in hardware; the software
    fallback (and the QUEUE_FULL overflow path) polls with a small
    randomized interval, exactly like the producer/consumer example.
    """
    if use_mwait:
        while True:
            resp = yield from api.mwait(addr, expected=expected)
            if resp.status is QUEUE_FULL:
                value = yield from api.lw(addr)
                if value != expected:
                    return value
                yield from api.compute(1 + api.rng.randrange(poll_window))
                continue
            if resp.value != expected:
                return resp.value
    while True:
        value = yield from api.lw(addr)
        if value != expected:
            return value
        yield from api.compute(1 + api.rng.randrange(poll_window))


@register_workload("pipeline")
class PipelineWorkload(Workload):
    """Producer → transform… → consumer chain (non-paper scenario)."""

    description = ("every core is one stage of a pipeline chained by "
                   "one-slot mailboxes; items flow end to end, stages "
                   "sleep on Mwait or poll (non-paper scenario)")
    params = {
        "items": 8,
        "produce_cycles": 20,
        "stage_cycles": 4,
        "use_mwait": True,
    }
    #: 6 cores in 2-core tiles: the odd shape scaled() now allows.
    spec_defaults = {"num_cores": 6, "cores_per_tile": 2,
                     "variant": "colibri"}
    smoke = {"items": 3}
    extra_metrics = ("items_delivered", "stages")

    def load(self, machine, spec: ScenarioSpec) -> LoadedWorkload:
        p = self.resolve_params(spec)
        stages = machine.config.num_cores
        if stages < 2:
            raise ConfigError("pipeline needs num_cores >= 2 "
                              "(a producer and a consumer)")
        items = p["items"]
        use_mwait = p["use_mwait"] and machine.variant.supports_wait
        #: Each link is (data, flag, ack): the downstream stage sleeps
        #: on ``flag`` (item available) and the upstream stage on
        #: ``ack`` (item consumed).  One sleeper per address — a wait
        #: queue serves waiters FIFO regardless of their expected
        #: value, so two stages sharing one flag with opposite
        #: expectations could queue behind each other and deadlock.
        links = [tuple(machine.allocator.alloc_interleaved(1)
                       for _ in range(3))
                 for _ in range(stages - 1)]
        received: list = []

        def send(api, link, seq, value, wait_ack):
            data, flag, ack = link
            yield from api.sw(data, value)
            yield from api.sw(flag, 1)
            if wait_ack:  # slot reusable once the consumer acked seq
                yield from _wait_until_changed(api, ack, seq, use_mwait)

        def recv(api, link, seq):
            data, flag, ack = link
            yield from _wait_until_changed(api, flag, 0, use_mwait)
            value = yield from api.lw(data)
            yield from api.sw(flag, 0)
            yield from api.sw(ack, seq + 1)
            return value

        def producer(api):
            for seq in range(items):
                yield from api.compute(p["produce_cycles"])
                yield from send(api, links[0], seq, seq,
                                wait_ack=seq < items - 1)
                yield from api.retire()

        def transform(api, stage):
            for seq in range(items):
                value = yield from recv(api, links[stage - 1], seq)
                yield from api.compute(p["stage_cycles"])
                yield from send(api, links[stage], seq, value + 1,
                                wait_ack=seq < items - 1)
                yield from api.retire()

        def consumer(api):
            for seq in range(items):
                value = yield from recv(api, links[-1], seq)
                received.append(value)
                yield from api.retire()

        machine.load(0, producer)
        for stage in range(1, stages - 1):
            machine.load(stage, lambda api, s=stage: transform(api, s))
        machine.load(stages - 1, consumer)

        def verify():
            expected = [seq + stages - 2 for seq in range(items)]
            if received != expected:
                raise AssertionError(
                    f"pipeline corrupted items: {received} != {expected}")

        def finish(stats):
            return None, {"items_delivered": len(received),
                          "stages": stages}

        return LoadedWorkload(verify=verify, finish=finish)


@register_workload("barrier_storm")
class BarrierStormWorkload(Workload):
    """Back-to-back central-barrier rounds (non-paper scenario)."""

    description = ("all cores hit a sense-reversing central barrier "
                   "for many consecutive rounds — broadcast-wakeup "
                   "stress for Mwait vs polling (non-paper scenario)")
    params = {
        "rounds": 5,
        "compute_cycles": 8,
        "use_mwait": True,
    }
    #: 12 cores in 3-core tiles: another odd scaled() shape.
    spec_defaults = {"num_cores": 12, "cores_per_tile": 3,
                     "variant": "colibri"}
    smoke = {"cores": 6, "cores_per_tile": 3, "rounds": 2}
    extra_metrics = ("rounds", "sleep_cycles")

    def load(self, machine, spec: ScenarioSpec) -> LoadedWorkload:
        p = self.resolve_params(spec)
        use_mwait = p["use_mwait"] and machine.variant.supports_wait
        barrier = CentralBarrier.create(machine, use_mwait=use_mwait)
        parties = machine.config.num_cores
        completions = [0] * parties

        def kernel(api):
            for _ in range(p["rounds"]):
                yield from api.compute(
                    1 + api.rng.randrange(p["compute_cycles"]))
                yield from barrier.wait(api)
                completions[api.core_id] += 1
                yield from api.retire()

        machine.load_all(kernel)

        def verify():
            lagging = [core for core, done in enumerate(completions)
                       if done != p["rounds"]]
            if lagging:
                raise AssertionError(
                    f"cores {lagging} missed barrier rounds: "
                    f"{completions}")
            count = machine.peek(barrier.count_addr)
            if count != 0:
                raise AssertionError(
                    f"barrier count not reset after last round: {count}")

        def finish(stats):
            return None, {"rounds": p["rounds"],
                          "sleep_cycles": stats.total_sleep_cycles}

        return LoadedWorkload(verify=verify, finish=finish)
