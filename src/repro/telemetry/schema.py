"""Structural validation of exported telemetry reports.

CI exports ``repro trace`` reports as JSON and validates them before
uploading the artifacts, so a probe whose section drifts from the
documented layout fails the pipeline rather than shipping a broken
artifact.  This module checks the report envelope; each section is
checked by its probe class's :meth:`~repro.telemetry.probes.Probe.check`
(a no-op for unregistered names), built on the shared
:mod:`repro.obs.schema` helpers.  Validate files with::

    python -m repro.obs report.json [more.json ...]
"""

from __future__ import annotations

from ..obs.schema import SchemaError, _require
from .probes import probe_class


def validate_report(data: dict) -> None:
    """Raise :class:`SchemaError` unless ``data`` is a valid report."""
    _require(data, "version", int, "report")
    _require(data, "cycles", int, "report")
    _require(data, "num_cores", int, "report")
    _require(data, "num_banks", int, "report")
    _require(data, "variant", str, "report")
    _require(data, "seed", int, "report")
    probes = _require(data, "probes", dict, "report")
    for name, section in probes.items():
        if not isinstance(section, dict):
            raise SchemaError(f"probes[{name!r}]: section must be a dict")
        probe_class(name).check(section, f"probes[{name!r}]")

