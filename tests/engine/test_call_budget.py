"""A deterministic budget for the Python calls each simulated request makes.

Most of the simulator's host time per request is the chain of Python
calls it climbs: core → network → bank → adapter → network → core.  A
timing of that chain is noisy, but its length is exact: this counts,
with :func:`sys.setprofile`, the ``"call"`` events of code defined
under ``src/repro`` (generator resumptions included) inside
``machine.run()``, and divides them by the requests the cores issued.
Each workload runs 32 operations on each of 16 cores, so start-up is
amortized: a histogram on one bin updated through an RMW method
(``amo``, ``lrsc``, ``wait``) or through a lock (``lock:<name>``, the
Fig. 4 contenders of ``LOCK_CLASSES``), or the Fig. 6 queue
(``queue:<method>``).

The budgets are the ratios of the current code (the same on Python
3.10-3.13); a change that lengthens the chain must raise one
deliberately.
"""

import os
import sys

import pytest

import repro
from repro import Machine, SystemConfig
from repro.algorithms.histogram import Histogram
from repro.algorithms.mcs_queue import ConcurrentQueue, queue_worker_kernel
from repro.scenarios.spec import parse_variant
from repro.scenarios.workloads import LOCK_CLASSES

SRC = os.path.dirname(repro.__file__) + os.sep

#: ``(variant, method) -> calls per request``, at most.
BUDGETS = {
    ("lrsc", "lrsc"): 11.94,
    ("colibri", "wait"): 23.90,
    ("amo", "amo"): 14.03,
    ("lrscwait:ideal", "wait"): 16.42,
    ("colibri", "lock:mcs"): 13.63,
    ("lrsc", "lock:lrsc"): 12.96,
    ("amo", "lock:amo"): 13.80,
    ("colibri", "lock:colibri"): 21.49,
    ("lrsc", "queue:lrsc"): 13.10,
    ("colibri", "queue:wait"): 18.20,
    ("amo", "queue:lock"): 15.85,
}


def load(machine: Machine, method: str, ops: int):
    """Load every core with the ``method`` workload; returns its check."""
    kind, _, name = method.partition(":")
    if kind == "queue":
        queue = ConcurrentQueue(machine, name, nodes_per_core=ops // 2 + 2)
        machine.load_all(lambda api: queue_worker_kernel(queue, api, ops))

        def check(stats):
            done = sum(core.ops_completed for core in stats.cores)
            assert done == machine.config.num_cores * ops

        return check
    histogram = Histogram(machine, 1)
    if kind == "lock":
        histogram.attach_locks(LOCK_CLASSES[name])
    machine.load_all(histogram.kernel_factory(kind, ops))
    return lambda stats: histogram.verify(machine.config.num_cores * ops)


def calls_per_request(variant: str, method: str, ops: int = 32) -> float:
    """Profiled calls under ``src/repro`` per issued request."""
    machine = Machine(SystemConfig.scaled(16), parse_variant(variant, 16),
                      seed=0)
    check = load(machine, method, ops)
    calls = 0
    ours: dict = {}

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            hit = ours.get(code)
            if hit is None:
                hit = ours[code] = code.co_filename.startswith(SRC)
            calls += hit

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        stats = machine.run()
    finally:
        sys.setprofile(previous)
    check(stats)
    requests = sum(sum(core.requests.values()) for core in stats.cores)
    return calls / requests


@pytest.mark.parametrize("variant,method", sorted(BUDGETS))
def test_calls_per_request_within_budget(variant, method):
    ratio = calls_per_request(variant, method)
    assert ratio <= BUDGETS[variant, method], \
        f"{variant}/{method}: {ratio:.2f} calls per request"


if __name__ == "__main__":
    for key in sorted(BUDGETS):
        print(*key, f"{calls_per_request(*key):.4f}", BUDGETS[key])
