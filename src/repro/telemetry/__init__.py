"""Pluggable telemetry: probes, contention heatmaps, trace export.

The simulator's aggregate counters (:mod:`repro.engine.stats`) say how
a run ended; telemetry says *where the cycles went on the way*.  A
:class:`~repro.telemetry.probes.Probe` subscribes to narrow hook points
on the event kernel, cores, banks and interconnect (via the
:class:`~repro.telemetry.hub.Telemetry` hub each
:class:`~repro.engine.simulator.Simulator` owns), folds observations
into compact state during the run, and reports a JSON-able section
afterwards.  Probes cost ~zero when not installed: every hook site is
one attribute load and one ``is not None`` branch.  Every record the
simulator makes flows through this hub; there is no second recording
path.

Built-in probes (``repro trace --probe <name>``):

* ``bank_contention`` — per-bank access/conflict/retry counters binned
  over cycle windows (the contention heatmap);
* ``core_timeline`` — running/stalled/sleeping spans per core;
* ``queue_occupancy`` — reservation/wait-queue depth over time;
* ``message_latency`` — per-op round-trip histograms + traffic classes.

The protocol log (:class:`~repro.telemetry.trace.Tracer`, probe name
``protocol_log``) records every core-state change, bank service and
Colibri queue alloc/free; it is not registered, so attach an instance.
Each probe class owns its section's format (CSV rows, ASCII view and
schema check).

Typical use through the scenario layer::

    from repro.scenarios import default_spec, run_scenario

    result = run_scenario(default_spec("histogram"),
                          probes=["bank_contention", "core_timeline"])
    print(result.telemetry.render())
    result.telemetry.save_json("telemetry.json")

or directly on a machine::

    machine = Machine(config, variant)
    machine.attach_probes(["bank_contention"])
    ...load and run...
    report = TelemetryReport.collect(machine)

User probes register exactly like workloads::

    @register_probe("my_probe")
    class MyProbe(Probe):
        def install(self, machine):
            machine.telemetry.subscribe("bank_access", self._on_access)
"""

from .hub import HOOKS, Telemetry
from .probes import (
    Probe,
    UnknownProbeError,
    create_probe,
    get_probe,
    list_probes,
    register_probe,
    unregister_probe,
)
from .report import TelemetryReport
from .schema import SchemaError, validate_report
from .trace import TraceRecord, Tracer
from .vcd import VcdWriter, write_vcd

# Importing the module registers the built-in probes; it must come
# after the imports above (it reaches back into .probes).
from . import builtin as _builtin_probes  # noqa: E402,F401
from .builtin import (
    BankContention,
    CoreTimeline,
    MessageLatency,
    QueueOccupancy,
)

__all__ = [
    "BankContention",
    "CoreTimeline",
    "HOOKS",
    "MessageLatency",
    "Probe",
    "QueueOccupancy",
    "SchemaError",
    "Telemetry",
    "TelemetryReport",
    "TraceRecord",
    "Tracer",
    "UnknownProbeError",
    "VcdWriter",
    "create_probe",
    "get_probe",
    "list_probes",
    "register_probe",
    "unregister_probe",
    "validate_report",
    "write_vcd",
]
