"""The probe framework: base class and registry.

A *probe* is a per-run observer that subscribes to
:class:`~repro.telemetry.hub.Telemetry` hooks of one machine, folds the
stream of observations into compact state while the simulation runs,
and renders a JSON-able *section* afterwards.  Probe classes register
under a name with :func:`register_probe` — one instance of the shared
:class:`~repro.registry.Registry`, like workloads, variants and
samplers — and are looked up by name from the CLI (``repro trace
--probe <name>``) and from :func:`repro.scenarios.run_scenario`.

Unlike workloads (stateless singletons), probes accumulate per-run
state, so the registry stores *classes* and :func:`create_probe`
instantiates a fresh one per run.

A probe class also owns the format of its section: :meth:`Probe.rows`
(CSV), :meth:`Probe.render` (ASCII) and :meth:`Probe.check` (schema).
Reports hold plain section dicts, so they find the class by section
name through :func:`probe_class`.
"""

from __future__ import annotations

from ..engine.errors import ConfigError
from ..registry import Registry


class UnknownProbeError(ConfigError):
    """A run named a telemetry probe that is not registered."""


class Probe:
    """Base class for telemetry probes.

    Lifecycle: ``install(machine)`` before the run (subscribe to hooks,
    snapshot initial state), the subscribed callbacks during the run,
    ``finalize(machine, stats)`` once after it, then ``report()`` for
    the JSON-able section.  Probes observe only — they must never
    mutate the machine or schedule events.
    """

    #: Registry name, filled by :func:`register_probe`.
    name: str = ""
    description: str = ""

    def install(self, machine) -> None:
        """Subscribe to the machine's telemetry hooks; called pre-run."""
        raise NotImplementedError(
            f"probe {type(self).__name__} does not implement install()")

    def finalize(self, machine, stats) -> None:
        """Post-run accounting (close open spans, compute means)."""

    def report(self) -> dict:
        """The probe's JSON-able report section."""
        raise NotImplementedError(
            f"probe {type(self).__name__} does not implement report()")

    # -- section format (plain functions of a section dict) --------------

    @staticmethod
    def rows(section: dict) -> tuple:
        """CSV ``(headers, rows)`` of a section; by default its
        top-level scalars as key/value pairs."""
        rows = [[key, value] for key, value in sorted(section.items())
                if isinstance(value, (int, float, str, bool))]
        return ["key", "value"], rows

    @staticmethod
    def render(report, section: dict, width: int) -> str:
        """ASCII view of a section in ``report``; ``""`` shows none."""
        return ""

    @staticmethod
    def check(section: dict, where: str) -> None:
        """Raise :class:`~repro.obs.schema.SchemaError` unless the
        section has this probe's layout; by default accepts any dict."""


#: name -> probe class.
_PROBES = Registry("probe", UnknownProbeError)
register_probe = _PROBES.register
unregister_probe = _PROBES.unregister
get_probe = _PROBES.get
create_probe = _PROBES.create
list_probes = _PROBES.items


def probe_class(name: str) -> type:
    """The probe class that formats section ``name``: the registered
    class, or the base :class:`Probe` for an unregistered name."""
    return _PROBES.entries.get(name, Probe)
