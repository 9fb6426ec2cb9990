"""Structural validation of exported telemetry reports.

CI exports ``repro trace`` reports as JSON and validates them before
uploading the artifacts, so a probe whose section drifts from the
documented layout fails the pipeline rather than shipping a broken
artifact.  The checks are plain functions over the dict built on the
shared :mod:`repro.obs.schema` helpers; validate files with::

    python -m repro.obs report.json [more.json ...]
"""

from __future__ import annotations

from ..obs.schema import SchemaError, _require


def _check_spans(spans, where: str) -> None:
    for span in spans:
        if (not isinstance(span, list) or len(span) != 3
                or not isinstance(span[0], str)
                or not all(isinstance(item, int) for item in span[1:])):
            raise SchemaError(f"{where}: bad span {span!r} "
                              "(want [state, start, end])")
        if span[2] < span[1]:
            raise SchemaError(f"{where}: span {span!r} ends before it starts")


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
        checker = _SECTION_CHECKERS.get(name)
        if checker is not None:
            checker(section, f"probes[{name!r}]")


def _check_bank_contention(section: dict, where: str) -> None:
    _require(section, "window_cycles", int, where)
    banks = _require(section, "banks", list, where)
    for bank in banks:
        for key in ("bank", "accesses", "conflicts", "queued_cycles",
                    "failed_responses"):
            _require(bank, key, int, f"{where}.banks")
        windows = _require(bank, "windows", list, f"{where}.banks")
        for cell in windows:
            if not (isinstance(cell, list) and len(cell) == 4
                    and all(isinstance(item, int) for item in cell)):
                raise SchemaError(
                    f"{where}: bad window cell {cell!r} "
                    "(want [index, accesses, conflicts, queued])")


def _check_core_timeline(section: dict, where: str) -> None:
    cores = _require(section, "cores", list, where)
    for core in cores:
        _require(core, "core", int, f"{where}.cores")
        _check_spans(_require(core, "spans", list, f"{where}.cores"),
                     f"{where}.cores[{core.get('core')}]")
    _require(section, "state_totals", dict, where)


def _check_queue_occupancy(section: dict, where: str) -> None:
    banks = _require(section, "banks", list, where)
    for bank in banks:
        _require(bank, "bank", int, f"{where}.banks")
        _require(bank, "max_depth", int, f"{where}.banks")
        _require(bank, "mean_depth", (int, float), f"{where}.banks")
        for sample in _require(bank, "samples", list, f"{where}.banks"):
            if not (isinstance(sample, list) and len(sample) == 2
                    and all(isinstance(item, int) for item in sample)):
                raise SchemaError(f"{where}: bad sample {sample!r}")


def _check_message_latency(section: dict, where: str) -> None:
    round_trip = _require(section, "round_trip", dict, where)
    for op, entry in round_trip.items():
        sub = f"{where}.round_trip[{op!r}]"
        _require(entry, "count", int, sub)
        _require(entry, "total_cycles", int, sub)
        _require(entry, "mean_cycles", (int, float), sub)
        _require(entry, "max_cycles", int, sub)
        for bucket in _require(entry, "histogram", list, sub):
            if not (isinstance(bucket, list) and len(bucket) == 2
                    and all(isinstance(item, int) for item in bucket)):
                raise SchemaError(f"{sub}: bad histogram bucket {bucket!r}")
    _require(section, "messages", dict, where)


_SECTION_CHECKERS = {
    "bank_contention": _check_bank_contention,
    "core_timeline": _check_core_timeline,
    "queue_occupancy": _check_queue_occupancy,
    "message_latency": _check_message_latency,
}
