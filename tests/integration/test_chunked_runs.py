"""A run split into ``run_for`` windows equals the same run in one go."""

import dataclasses

from repro import Machine, SystemConfig, VariantSpec


def _machine():
    """4-core Colibri LRwait/SCwait increments with a core timeline."""
    machine = Machine(SystemConfig.scaled(4), VariantSpec.colibri(), seed=0)
    counter = machine.allocator.alloc_interleaved(1)

    def kernel(api):
        for _ in range(20):
            yield from api.compute(1 + api.core_id)
            resp = yield from api.lrwait(counter)
            yield from api.scwait(counter, resp.value + 1)
            yield from api.retire()

    machine.load_all(kernel)
    (timeline,) = machine.attach_probes(["core_timeline"])
    return machine, counter, timeline


def _outcome(machine, counter, timeline):
    return (dataclasses.asdict(machine.stats), machine.peek(counter),
            timeline.report())


def test_two_windows_equal_one_window():
    chunked = _machine()
    chunked[0].run_for(50)
    assert chunked[0].sim.now == 50
    chunked[0].run_for(5000)
    whole = _machine()
    whole[0].run_for(5050)
    assert whole[0].peek(whole[1]) == 80
    assert _outcome(*chunked) == _outcome(*whole)


def test_many_windows_then_run_to_completion():
    chunked = _machine()
    for _ in range(7):
        chunked[0].run_for(13)
    chunked[0].run()
    whole = _machine()
    whole[0].run()
    assert _outcome(*chunked) == _outcome(*whole)
