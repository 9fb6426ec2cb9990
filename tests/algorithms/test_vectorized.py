"""The vectorized RMW drivers are bit-identical to the scalar kernels.

Each workload runs its flat driver (:mod:`repro.algorithms.vectorized`);
these goldens rebuild the same point with the scalar kernel the driver
replaces and compare the full counter trees, per RMW method.
"""

import dataclasses
import random

import pytest

from repro.algorithms.histogram import Histogram
from repro.algorithms.matmul import Matmul
from repro.scenarios import default_spec, run_scenario
from repro.scenarios.registry import get_workload
from repro.scenarios.run import apply_settings, build_machine
from repro.workloads.streams import zipf_stream


def smoke_spec(workload: str, **params):
    workload_cls = get_workload(workload)
    spec = apply_settings(default_spec(workload),
                          dict(workload_cls.smoke))
    if params:
        spec = spec.with_params(**params)
    spec.validate()
    return spec


@pytest.mark.parametrize("method,variant",
                         [("amo", "colibri"), ("lrsc", "lrsc"),
                          ("wait", "lrscwait:2"), ("wait", "colibri")])
def test_flat_histogram_driver_matches_scalar(method, variant):
    spec = dataclasses.replace(smoke_spec("histogram", method=method),
                               variant=variant)
    flat = run_scenario(spec)            # workload path = flat driver
    machine = build_machine(spec)
    params = get_workload("histogram").resolve_params(spec)
    histogram = Histogram(machine, params["bins"])
    machine.load_all(histogram.kernel_factory(
        method, params["updates_per_core"]))
    scalar_stats = machine.run()
    assert scalar_stats == flat.stats


@pytest.mark.parametrize("method", ["amo", "lrsc", "wait"])
def test_flat_zipf_driver_matches_scalar(method):
    variant = "lrsc" if method == "lrsc" else "colibri"
    spec = dataclasses.replace(smoke_spec("histogram_zipf", method=method),
                               variant=variant)
    flat = run_scenario(spec)
    machine = build_machine(spec)
    params = get_workload("histogram_zipf").resolve_params(spec)
    histogram = Histogram(machine, params["bins"])
    streams = [
        list(zipf_stream(random.Random(spec.seed * 1_000_003 + core),
                         params["bins"], params["updates_per_core"],
                         exponent=params["exponent"]))
        for core in range(machine.config.num_cores)
    ]
    from repro.sync.rmw import fetch_add

    def kernel(api):
        for index in streams[api.core_id]:
            yield from fetch_add(api, histogram.bin_addr(index), 1,
                                 method)
            yield from api.retire()

    machine.load_all(kernel)
    assert machine.run() == flat.stats


def test_flat_matmul_driver_matches_scalar():
    spec = smoke_spec("matmul")
    flat = run_scenario(spec)
    machine = build_machine(spec)
    params = get_workload("matmul").resolve_params(spec)
    workers = machine.config.num_cores
    matmul = Matmul(machine, params["dim"])
    matmul.fill_inputs()
    for worker, rows in enumerate(matmul.partition_rows(workers)):
        machine.load(worker,
                     lambda api, r=rows: matmul.worker_kernel(api, r))
    scalar_stats = machine.run_until_finished(list(range(workers)))
    matmul.verify()
    assert scalar_stats == flat.stats


def test_flat_factories_reject_lock_method():
    spec = smoke_spec("histogram")
    machine = build_machine(spec)
    histogram = Histogram(machine, 2)
    with pytest.raises(ValueError, match="lock"):
        histogram.flat_kernel_factory("lock", 2)
    with pytest.raises(ValueError, match="lock"):
        histogram.flat_stream_factory([[0]], "lock")
