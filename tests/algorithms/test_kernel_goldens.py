"""Kernel goldens: the RMW, Zipf, lock, queue, matmul and Fig. 5 kernels
replay the recorded runs bit for bit.

Each case runs a registered workload at smoke scale and compares three
things with ``data/kernel_goldens.json``: the final cycle count, the
final shared data (histogram bins, the C matrix) and a SHA-256 of the
canonical JSON of the full counter tree.  The ``interference`` cases
also pin the baseline makespan; ``lrscwait:1`` there bounces LRwaits
with ``QUEUE_FULL``, so its golden covers the backoff draws.  The lock
cases (Fig. 4) contend on one bin, one per lock class on a variant that
runs it, and the queue cases (Fig. 6) cover each queue method; the
``lrscwait:1`` lock and queue cases take the ``QUEUE_FULL`` paths.

Regenerate only when the timing model changes on purpose::

    PYTHONPATH=src python -m tests.algorithms.test_kernel_goldens
"""

import dataclasses
import hashlib
import json
import pathlib
from unittest import mock

import pytest

from repro import Machine
from repro.algorithms.histogram import Histogram
from repro.algorithms.matmul import Matmul
from repro.algorithms.mcs_queue import NEXT, VALUE, ConcurrentQueue
from repro.scenarios import default_spec
from repro.scenarios.registry import get_workload
from repro.scenarios.run import apply_settings, build_machine

DATA = pathlib.Path(__file__).parent / "data" / "kernel_goldens.json"

def _lock(lock: str) -> dict:
    """Histogram overrides: every core updates one bin through ``lock``."""
    return {"method": "lock", "lock": lock, "bins": 1,
            "updates_per_core": 4}


#: Case name -> (workload, variant, parameter overrides).
CASES = {
    "histogram-amo-colibri": ("histogram", "colibri", {"method": "amo"}),
    "histogram-lrsc-lrsc": ("histogram", "lrsc", {"method": "lrsc"}),
    "histogram-wait-lrscwait:2": ("histogram", "lrscwait:2",
                                  {"method": "wait"}),
    "histogram-wait-colibri": ("histogram", "colibri", {"method": "wait"}),
    "histogram_zipf-amo": ("histogram_zipf", "colibri", {"method": "amo"}),
    "histogram_zipf-lrsc": ("histogram_zipf", "lrsc", {"method": "lrsc"}),
    "histogram_zipf-wait": ("histogram_zipf", "colibri",
                            {"method": "wait"}),
    "histogram-lock:amo-amo": ("histogram", "amo", _lock("amo")),
    "histogram-lock:lrsc-lrsc": ("histogram", "lrsc", _lock("lrsc")),
    "histogram-lock:colibri-colibri": ("histogram", "colibri",
                                       _lock("colibri")),
    "histogram-lock:colibri-lrscwait:1": ("histogram", "lrscwait:1",
                                          _lock("colibri")),
    "histogram-lock:mcs-colibri": ("histogram", "colibri", _lock("mcs")),
    "queue-lrsc-lrsc": ("queue", "lrsc", {"method": "lrsc"}),
    "queue-wait-colibri": ("queue", "colibri", {"method": "wait"}),
    "queue-wait-lrscwait:1": ("queue", "lrscwait:1", {"method": "wait"}),
    "queue-lock-amo": ("queue", "amo", {"method": "lock"}),
    "matmul": ("matmul", "colibri", {}),
    "interference-amo-colibri": ("interference", "colibri",
                                 {"method": "amo"}),
    "interference-wait-colibri": ("interference", "colibri",
                                  {"method": "wait"}),
    "interference-amo-lrscwait:1": ("interference", "lrscwait:1",
                                    {"method": "amo"}),
    "interference-wait-lrscwait:1": ("interference", "lrscwait:1",
                                     {"method": "wait"}),
    "interference-lrsc-lrsc": ("interference", "lrsc", {"method": "lrsc"}),
}


def smoke_spec(workload: str, variant: str, params: dict):
    spec = apply_settings(default_spec(workload),
                          dict(get_workload(workload).smoke))
    spec = dataclasses.replace(spec.with_params(**params), variant=variant)
    spec.validate()
    return spec


def stats_digest(stats) -> str:
    blob = json.dumps(dataclasses.asdict(stats), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def shared_data(workload: str, spec, params: dict, machine) -> dict:
    """The final shared arrays, located by replaying the workload's
    allocations on a fresh machine of the same spec."""
    fresh = build_machine(spec)
    if workload == "matmul":
        c_base = Matmul(fresh, params["dim"]).c_base
        return {"c": machine.peek_array(c_base, params["dim"] ** 2)}
    if workload == "interference":
        dim = params["matmul_dim"]
        c_base = Matmul(fresh, dim).c_base
        bins = Histogram(fresh, params["bins"]).base
        return {"bins": machine.peek_array(bins, params["bins"]),
                "c": machine.peek_array(c_base, dim * dim)}
    if workload == "queue":
        # The sentinel's value (the last one dequeued), then the values
        # still queued, oldest first.
        queue = ConcurrentQueue(fresh, params["method"], 1)
        values = []
        node = machine.peek(queue.head_addr)
        while node:
            values.append(machine.peek(node + VALUE * queue.word))
            node = machine.peek(node + NEXT * queue.word)
        return {"queue": values}
    base = Histogram(fresh, params["bins"]).base
    return {"bins": machine.peek_array(base, params["bins"])}


def run_case(name: str) -> dict:
    workload, variant, overrides = CASES[name]
    spec = smoke_spec(workload, variant, overrides)
    machines = []

    class RecordingMachine(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(self)

    with mock.patch("repro.scenarios.run.Machine", RecordingMachine), \
            mock.patch("repro.workloads.interference.Machine",
                       RecordingMachine):
        result = get_workload(workload).run(spec)
    params = get_workload(workload).resolve_params(spec)
    record = {"cycles": result.cycles,
              "data": shared_data(workload, spec, params, machines[-1]),
              "stats_sha256": stats_digest(result.stats)}
    if workload == "interference":
        record["baseline_cycles"] = result.metrics["baseline_cycles"]
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_golden(name):
    goldens = json.loads(DATA.read_text())
    assert run_case(name) == goldens[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({name: run_case(name)
                                for name in sorted(CASES)},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} goldens to {DATA}")
