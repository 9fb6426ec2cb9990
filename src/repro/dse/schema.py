"""Structural validation of campaign journals.

The journal is the campaign's durable state — resume, ``repro
frontier`` and CI artifacts all read it back — so, exactly like
exported telemetry reports, it is validated against the documented
layout with plain functions on the shared :mod:`repro.obs.schema`
helpers.  A campaign whose journal drifts from this shape fails the
pipeline rather than shipping an unreadable artifact.  Validate files
with::

    python -m repro.obs journal.json [more.json ...]
"""

from __future__ import annotations

from ..obs.schema import SchemaError, _require

#: Journal states: ``complete`` (sampler exhausted), ``budget``
#: (evaluation budget ran out first), ``partial`` (interrupted —
#: resumable with ``repro explore --resume``).
STATUSES = ("complete", "budget", "partial")


def validate_journal(data: dict) -> None:
    """Raise :class:`SchemaError` unless ``data`` is a valid journal."""
    from .journal import COMPATIBLE_VERSIONS
    version = _require(data, "version", int, "journal")
    if version not in COMPATIBLE_VERSIONS:
        raise SchemaError(
            f"journal: version must be one of {COMPATIBLE_VERSIONS}, "
            f"got {version!r}")
    status = _require(data, "status", str, "journal")
    if status not in STATUSES:
        raise SchemaError(
            f"journal: status must be one of {STATUSES}, got {status!r}")
    _require(data, "paid", int, "journal")
    campaign = _require(data, "campaign", dict, "journal")
    _require(campaign, "workload", str, "journal.campaign")
    _require(campaign, "base_spec", dict, "journal.campaign")
    space = _require(campaign, "space", dict, "journal.campaign")
    axes = _require(space, "axes", list, "journal.campaign.space")
    for pair in axes:
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str)
                and isinstance(pair[1], list) and pair[1]):
            raise SchemaError(
                f"journal.campaign.space: bad axis {pair!r} "
                f"(want [key, [value, ...]] pairs in declaration order)")
    sampler = _require(campaign, "sampler", dict, "journal.campaign")
    _require(sampler, "name", str, "journal.campaign.sampler")
    objectives = _require(campaign, "objectives", list, "journal.campaign")
    for text in objectives:
        if not isinstance(text, str) or ":" not in text:
            raise SchemaError(
                f"journal.campaign: bad objective {text!r} "
                f"(want 'min:<metric>' / 'max:<metric>')")
    _require(campaign, "budget", int, "journal.campaign")
    _require(campaign, "seed", int, "journal.campaign")
    evaluations = _require(data, "evaluations", list, "journal")
    for position, record in enumerate(evaluations):
        _check_evaluation(record, position, objectives)
    best = data.get("best")
    if best is not None and not isinstance(best, int):
        raise SchemaError("journal: 'best' must be an evaluation index "
                          f"or null, got {best!r}")
    frontier = data.get("frontier", [])
    if not isinstance(frontier, list) or \
            not all(isinstance(i, int) for i in frontier):
        raise SchemaError(
            f"journal: 'frontier' must be a list of evaluation "
            f"indices, got {frontier!r}")
    indices = {record["index"] for record in evaluations}
    for index in frontier + ([best] if best is not None else []):
        if index not in indices:
            raise SchemaError(
                f"journal: index {index} not among the evaluations")


def _check_evaluation(record, position: int, objectives) -> None:
    where = f"journal.evaluations[{position}]"
    index = _require(record, "index", int, where)
    if index != position:
        raise SchemaError(
            f"{where}: index {index} out of order (want {position})")
    _require(record, "batch", int, where)
    _require(record, "rung", int, where)
    fidelity = _require(record, "fidelity", str, where)
    if fidelity not in ("full", "smoke"):
        raise SchemaError(f"{where}: bad fidelity {fidelity!r}")
    _require(record, "overrides", dict, where)
    _require(record, "spec", dict, where)
    spec_hash = _require(record, "spec_hash", str, where)
    if len(spec_hash) != 64:
        raise SchemaError(f"{where}: spec_hash must be a SHA-256 hex "
                          f"digest, got {spec_hash!r}")
    if "cached" not in record or not isinstance(record["cached"], bool):
        raise SchemaError(f"{where}: 'cached' must be a bool")
    # v2 time-attribution fields; optional so v1 journals still pass.
    if "wall_ms" in record:
        wall = record["wall_ms"]
        if not isinstance(wall, (int, float)) or isinstance(wall, bool) \
                or wall < 0:
            raise SchemaError(
                f"{where}: 'wall_ms' must be a number >= 0, got {wall!r}")
    if "cache_hit" in record and not isinstance(record["cache_hit"], bool):
        raise SchemaError(f"{where}: 'cache_hit' must be a bool")
    values = _require(record, "objectives", dict, where)
    for text in objectives:
        metric = text.split(":", 1)[1]
        if metric not in values:
            raise SchemaError(
                f"{where}: missing objective value {metric!r}")
        if not isinstance(values[metric], (int, float)) \
                or isinstance(values[metric], bool):
            raise SchemaError(
                f"{where}: objective {metric!r} must be numeric, "
                f"got {values[metric]!r}")
    _require(record, "scalars", dict, where)
