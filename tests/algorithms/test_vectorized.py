"""The precomputed-stream kernel factory runs only the lock-free RMWs.

Per-core index streams (e.g. the Zipf draws) feed
:meth:`Histogram.update_kernel` directly; the per-bin lock kernel draws
its own indices, so ``stream_factory`` has no lock path and must refuse
``"lock"`` up front rather than fail inside a core's kernel.
"""

import pytest

from repro.algorithms.histogram import Histogram
from repro.scenarios import default_spec
from repro.scenarios.registry import get_workload
from repro.scenarios.run import apply_settings, build_machine


def test_flat_factories_reject_lock_method():
    spec = apply_settings(default_spec("histogram"),
                          dict(get_workload("histogram").smoke))
    spec.validate()
    histogram = Histogram(build_machine(spec), 2)
    with pytest.raises(ValueError, match="lock"):
        histogram.stream_factory([[0]], "lock")
