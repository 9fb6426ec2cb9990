"""Machine-readable export of experiment results.

Reproduction artifacts should be diffable and plottable without
re-running anything, so every experiment result serializes itself
(``to_dict()``) to a plain-JSON document with a stable schema:

``{"experiment": ..., "parameters": {...}, "series"/"rows": ...}``

:func:`export_all` runs every experiment of the paper manifest
(:mod:`repro.eval.paper`) at a chosen scale and writes one JSON file
per experiment plus an ``index.json``.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Optional, Sequence

from .paper import EXPERIMENTS, Scale


def write_json(path: str, document: dict) -> str:
    """Write one JSON document (sorted keys, indented); returns path."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_csv(path: str, headers: Sequence[str],
              rows: Sequence[Sequence]) -> str:
    """Write one tidy CSV table; returns path."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        writer.writerows(rows)
    return path


def sweep_to_dict(base_spec, axes: dict, outcomes) -> dict:
    """Schema for ``repro sweep`` exports: one row per grid point.

    ``outcomes`` is the ``[(overrides, result)]`` list
    :func:`repro.scenarios.run.sweep` returns; each row carries the
    point's axis values plus every scalar of its result, so the JSON is
    plottable without re-running anything — the same contract as the
    experiments' ``to_dict()`` documents.
    """
    return {
        "experiment": "sweep",
        "parameters": {
            "workload": base_spec.workload,
            "base_spec": base_spec.to_dict(),
            "axes": {key: list(values) for key, values in axes.items()},
        },
        "rows": [dict(combo, **result.scalars())
                 for combo, result in outcomes],
    }


def sweep_table(axes: dict, outcomes) -> tuple:
    """``(headers, rows)`` for the CSV rendering of a sweep."""
    axis_keys = list(axes)
    scalar_keys = sorted({key for _combo, result in outcomes
                          for key in result.scalars()})
    headers = axis_keys + scalar_keys
    rows = []
    for combo, result in outcomes:
        scalars = result.scalars()
        rows.append([combo.get(key, "") for key in axis_keys]
                    + [scalars.get(key, "") for key in scalar_keys])
    return headers, rows


def export_all(directory: str, num_cores: int = 64,
               fig5_cores: Optional[int] = None,
               updates_per_core: int = 8) -> dict:
    """Run everything and write one JSON per experiment + an index.

    Returns the index dict (experiment -> file name).
    """
    scale = Scale.at(num_cores, updates_per_core, fig5_cores)
    os.makedirs(directory, exist_ok=True)
    index = {}
    for name, run in EXPERIMENTS.items():
        document = run(scale, jobs=1, cache=None).to_dict()
        index[name] = file_name = f"{name}.json"
        with open(os.path.join(directory, file_name), "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
    with open(os.path.join(directory, "index.json"), "w") as handle:
        json.dump(index, handle, indent=2, sort_keys=True)
    return index
