"""LRSCwait / Colibri — a reproduction of the DATE 2024 paper.

*LRSCwait: Enabling Scalable and Efficient Synchronization in Manycore
Systems through Polling-Free and Retry-Free Operation* (Riedel,
Gantenbein, Ottaviano, Hoefler, Benini).

The package provides:

* a behavioural, cycle-approximate discrete-event simulator of a
  MemPool-like manycore system (:class:`~repro.machine.Machine`);
* an **open atomic-variant registry** (:mod:`repro.memory.variants`):
  the full family the paper evaluates — plain AMOs, MemPool's
  single-slot LR/SC, centralized LRSCwait\\ :sub:`q`, and the
  distributed **Colibri** queue with Mwait — as registered
  :class:`~repro.memory.variants.AtomicVariant` plugins with typed
  parameter schemas, adapter factories and area/energy cost-model
  hooks; user hardware designs register the same way
  (:func:`register_variant`) and flow through every CLI, table and
  design-space campaign;
* a software synchronization library running on the simulated cores
  (spin locks, LRSC lock, Colibri lock, Mwait-based MCS lock, barrier);
* concurrent algorithms (histogram, MCS queue, matmul workers) and the
  evaluation harness regenerating every table and figure of the paper
  (:mod:`repro.eval`);
* a declarative scenario API (:mod:`repro.scenarios`): serializable
  :class:`~repro.scenarios.spec.ScenarioSpec`\\ s, a workload registry,
  and ``run_scenario``/``sweep`` — the surface behind the
  ``repro run / list / sweep`` CLI;
* a pluggable telemetry subsystem (:mod:`repro.telemetry`): probes
  observing the kernel/cores/banks/interconnect through near-zero-cost
  hooks, cycle-resolved contention heatmaps and core timelines, JSON/
  CSV/VCD export — the surface behind ``repro trace``;
* a design-space exploration subsystem (:mod:`repro.dse`): declarative
  :class:`~repro.dse.space.SearchSpace`\\ s with constraints, pluggable
  samplers (grid, random, successive halving), metric/telemetry
  objectives, and budgeted :class:`~repro.dse.campaign.Campaign`\\ s
  with resumable journals and Pareto frontiers — the surface behind
  ``repro explore`` / ``repro frontier``.
"""

from .arch.config import LatencyConfig, SystemConfig
from .cores.api import CoreApi
from .engine.errors import (
    ConfigError,
    DeadlockError,
    ProtocolViolation,
    ReproError,
    SimulationError,
)
from .dse import (
    Campaign,
    CampaignResult,
    Objective,
    Sampler,
    SearchSpace,
    list_samplers,
    register_sampler,
)
from .engine.stats import SimStats
from .interconnect.messages import Op, Status
from .machine import Machine
from .memory.variants import (
    AtomicVariant,
    UnknownVariantError,
    VariantParam,
    VariantSpec,
    get_variant,
    list_variants,
    register_variant,
)
from .scenarios import (
    ScenarioSpec,
    Workload,
    build_machine,
    default_spec,
    list_workloads,
    register_workload,
    run_scenario,
    run_scenarios,
)
from .telemetry import (
    Probe,
    TelemetryReport,
    TraceRecord,
    Tracer,
    list_probes,
    register_probe,
    write_vcd,
)

__version__ = "1.7.0"

__all__ = [
    "LatencyConfig",
    "SystemConfig",
    "CoreApi",
    "ConfigError",
    "DeadlockError",
    "ProtocolViolation",
    "ReproError",
    "SimulationError",
    "SimStats",
    "TraceRecord",
    "Tracer",
    "write_vcd",
    "Op",
    "Status",
    "Machine",
    "AtomicVariant",
    "UnknownVariantError",
    "VariantParam",
    "VariantSpec",
    "get_variant",
    "list_variants",
    "register_variant",
    "ScenarioSpec",
    "Workload",
    "build_machine",
    "default_spec",
    "list_workloads",
    "register_workload",
    "run_scenario",
    "run_scenarios",
    "Probe",
    "TelemetryReport",
    "list_probes",
    "register_probe",
    "Campaign",
    "CampaignResult",
    "Objective",
    "Sampler",
    "SearchSpace",
    "list_samplers",
    "register_sampler",
    "__version__",
]
