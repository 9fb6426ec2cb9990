"""A deterministic budget for the Python calls each simulated request makes.

Most of the simulator's host time per request is the chain of Python
calls it climbs: core → network → bank → adapter → network → core.  A
timing of that chain is noisy, but its length is exact: this counts,
with :func:`sys.setprofile`, the ``"call"`` events of code defined
under ``src/repro`` (generator resumptions included) inside
``machine.run()``, and divides them by the requests the cores issued.
Each workload is a 16-core histogram on one bin, 32 updates per core,
so start-up is amortized.

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
from repro.scenarios.spec import parse_variant

SRC = os.path.dirname(repro.__file__) + os.sep

#: ``(variant, method) -> calls per request``, at most.
BUDGETS = {
    ("lrsc", "lrsc"): 11.94,
    ("colibri", "wait"): 23.90,
    ("amo", "amo"): 14.03,
    ("lrscwait:ideal", "wait"): 16.42,
}


def calls_per_request(variant: str, method: str, updates: int = 32) -> float:
    """Profiled calls under ``src/repro`` per issued request."""
    machine = Machine(SystemConfig.scaled(16), parse_variant(variant, 16),
                      seed=0)
    histogram = Histogram(machine, 1)
    machine.load_all(histogram.kernel_factory(method, updates))
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
    histogram.verify(16 * updates)
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
