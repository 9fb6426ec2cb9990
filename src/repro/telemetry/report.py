"""The telemetry report: collection, export, and ASCII rendering.

A :class:`TelemetryReport` bundles the sections of every probe attached
to one run together with enough run identity (workload, variant, shape,
seed, final cycle) to interpret them later.  It is plain data: it
round-trips through ``to_dict``/``from_dict`` (and JSON), flattens to
one CSV table per probe, and renders the paper-style diagnostics — the
per-bank contention heatmap and the core-state timeline — as ASCII.
Each section's CSV rows, ASCII view and schema come from its probe
class (:func:`~repro.telemetry.probes.probe_class`).

Reports are deliberately **not** stored in the scenario result cache
(see :func:`repro.scenarios.run.run_scenarios`): probe data scales with
run length, and cached sweep entries must stay slim.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from ..engine.errors import ConfigError
from .probes import probe_class
from .schema import validate_report

#: Bump when the report layout changes incompatibly.
REPORT_VERSION = 1


@dataclass
class TelemetryReport:
    """All probe sections of one run, plus the run's identity."""

    cycles: int
    num_cores: int
    num_banks: int
    variant: str
    seed: int
    probes: dict = field(default_factory=dict)
    workload: Optional[str] = None
    spec: Optional[dict] = None
    version: int = REPORT_VERSION

    @classmethod
    def collect(cls, machine, probes=None, spec=None) -> "TelemetryReport":
        """Assemble the report of a finished machine run.

        ``probes`` defaults to every probe attached to the machine;
        ``spec`` (a :class:`~repro.scenarios.spec.ScenarioSpec`) adds
        the scenario identity when the run came from one.
        """
        if probes is None:
            probes = machine.probes
        return cls(
            cycles=machine.stats.cycles,
            num_cores=machine.config.num_cores,
            num_banks=machine.config.num_banks,
            variant=machine.variant.label(),
            seed=machine.seed,
            probes={probe.name: probe.report() for probe in probes},
            workload=spec.workload if spec is not None else None,
            spec=spec.to_dict() if spec is not None else None,
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "cycles": self.cycles,
            "num_cores": self.num_cores,
            "num_banks": self.num_banks,
            "variant": self.variant,
            "seed": self.seed,
            "workload": self.workload,
            "spec": self.spec,
            "probes": self.probes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetryReport":
        """Load a report, raising :class:`ConfigError` (a
        :class:`~repro.obs.schema.SchemaError` for a malformed layout)
        unless ``data`` is a valid report."""
        if not isinstance(data, dict):
            raise ConfigError(f"report data must be a dict, got {data!r}")
        known = {"version", "cycles", "num_cores", "num_banks", "variant",
                 "seed", "workload", "spec", "probes"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown report fields {unknown}")
        validate_report(data)
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "TelemetryReport":
        return cls.from_dict(json.loads(text))

    def save_json(self, path: str) -> str:
        """Write the JSON rendering to ``path``; returns the path."""
        with open(path, "w") as stream:
            stream.write(self.to_json(indent=2))
            stream.write("\n")
        return path

    # -- CSV export -----------------------------------------------------------

    def to_csv(self, directory: str) -> dict:
        """One CSV file per probe section under ``directory``.

        Returns ``{probe_name: path}``.  Each section is flattened by
        its probe class's :meth:`~repro.telemetry.probes.Probe.rows`:
        tidy long-format tables for the built-in probes, a key/value
        dump of the section's scalars by default.
        """
        os.makedirs(directory, exist_ok=True)
        paths = {}
        for name, section in sorted(self.probes.items()):
            headers, rows = probe_class(name).rows(section)
            path = os.path.join(directory, f"{name}.csv")
            with open(path, "w", newline="") as stream:
                writer = csv.writer(stream)
                writer.writerow(headers)
                writer.writerows(rows)
            paths[name] = path
        return paths

    # -- ASCII rendering ------------------------------------------------------

    def render(self, width: int = 64) -> str:
        """Human-readable dump: summary table plus per-probe views."""
        from ..eval.reporting import render_table
        rows = [("workload", self.workload or "(direct machine run)"),
                ("variant", self.variant),
                ("cores / banks", f"{self.num_cores} / {self.num_banks}"),
                ("seed", self.seed),
                ("cycles", self.cycles),
                ("probes", ", ".join(sorted(self.probes)) or "(none)")]
        parts = [render_table(["field", "value"], rows,
                              title="telemetry report")]
        for name in sorted(self.probes):
            view = probe_class(name).render(self, self.probes[name], width)
            if view:
                parts.append(view)
        return "\n\n".join(parts)
