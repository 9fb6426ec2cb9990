"""The interference workload of Fig. 5.

The system is partitioned into *pollers* — cores endlessly performing
atomic histogram updates on a handful of bins — and *workers* — cores
computing a matrix multiplication.  Pollers and workers share only the
banks and the interconnect; any worker slowdown is pure interference
from the atomics' traffic.

The experiment runs twice: once with pollers idle (baseline makespan)
and once with them hammering; the figure's y-axis is
``baseline_makespan / interfered_makespan``.

Poller kernels run *forever* (matching the paper's setup where atomics
saturate for the whole measurement); the run stops when the watched
workers finish.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms.histogram import Histogram, uniform_indices
from ..algorithms.matmul import Matmul
from ..arch.config import SystemConfig
from ..machine import Machine
from ..memory.variants import VariantSpec
from ..sync.backoff import PAPER_LOCK_BACKOFF


def endless_histogram_kernel(histogram: Histogram, api, method: str,
                             backoff=PAPER_LOCK_BACKOFF):
    """Poller: update random bins until the simulation stops.

    The histogram's update loop over an endless uniform index stream.
    LRSC pollers retry with the paper's fixed 128-cycle backoff
    ("despite a backoff of 128 cycles", §V-B); the backoff is ignored
    by methods that never retry.
    """
    kwargs = {"backoff": backoff} if method == "lrsc" else {}
    return histogram.update_kernel(
        api, uniform_indices(api.rng, histogram.num_bins), method, **kwargs)


@dataclass
class InterferenceResult:
    """One Fig. 5 point."""

    num_pollers: int
    num_workers: int
    num_bins: int
    method: str
    baseline_cycles: int
    interfered_cycles: int

    @property
    def relative_throughput(self) -> float:
        """Worker speed with interference relative to without (<= 1)."""
        if self.interfered_cycles == 0:
            return 1.0
        return self.baseline_cycles / self.interfered_cycles


def measure_interference(config: SystemConfig, variant: VariantSpec,
                         method: str, num_workers: int, num_bins: int,
                         matmul_dim: int = 16, seed: int = 0) -> tuple:
    """The paired measurement: ``(InterferenceResult, interfered stats)``.

    ``method`` is the pollers' RMW flavour (``"amo"``, ``"lrsc"``,
    ``"wait"``); workers always run the same matmul.  The poller count
    is ``num_cores - num_workers``.  This is the execution engine
    behind the ``interference`` scenario; library callers use
    :func:`run_interference` (spec-routed, cacheable) instead.
    """
    num_pollers = config.num_cores - num_workers
    if num_pollers < 0:
        raise ValueError("more workers than cores")
    # Workers take the highest core ids: the histogram bins live in the
    # low banks (tile 0), so workers are remote from the hot tile and
    # experience interference through the shared interconnect, not by
    # sitting next to the bins.
    worker_ids = list(range(config.num_cores - num_workers,
                            config.num_cores))
    poller_ids = list(range(config.num_cores - num_workers))

    def build(load_pollers: bool) -> tuple:
        machine = Machine(config, variant, seed=seed)
        matmul = Matmul(machine, matmul_dim)
        matmul.fill_inputs()
        histogram = Histogram(machine, num_bins)
        rows = matmul.partition_rows(num_workers)
        for worker_index, core_id in enumerate(worker_ids):
            machine.load(core_id,
                         lambda api, r=rows[worker_index]:
                         matmul.worker_kernel(api, r))
        if load_pollers:
            for core_id in poller_ids:
                machine.load(core_id,
                             lambda api: endless_histogram_kernel(
                                 histogram, api, method))
        stats = machine.run_until_finished(worker_ids)
        finish = max(machine.cores[i].finish_cycle for i in worker_ids)
        return finish, stats

    baseline, _baseline_stats = build(load_pollers=False)
    interfered, stats = build(load_pollers=True)
    result = InterferenceResult(
        num_pollers=num_pollers, num_workers=num_workers,
        num_bins=num_bins, method=method,
        baseline_cycles=baseline, interfered_cycles=interfered)
    return result, stats


def run_interference(config: SystemConfig, variant: VariantSpec,
                     method: str, num_workers: int, num_bins: int,
                     matmul_dim: int = 16, seed: int = 0
                     ) -> InterferenceResult:
    """Measure matmul slowdown under atomic interference.

    A thin spec factory: the arguments become an ``interference``
    :class:`~repro.scenarios.spec.ScenarioSpec` and run through
    :func:`~repro.scenarios.run.run_scenario`, so results are
    cache/shard-compatible with every other scenario.  The signature
    (and the returned :class:`InterferenceResult`) is unchanged from
    the pre-spec API.
    """
    from ..scenarios import interference_spec, run_scenario
    spec = interference_spec(config, variant, method, num_workers,
                             num_bins, matmul_dim=matmul_dim, seed=seed)
    return run_scenario(spec).point
