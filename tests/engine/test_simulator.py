"""Unit tests for the simulation kernel."""

import pytest

from repro.engine.errors import DeadlockError, SimulationError
from repro.engine.simulator import Simulator


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda: seen.append(sim.now))
    sim.schedule(3, lambda: seen.append(sim.now))
    final = sim.run()
    assert seen == [3, 10]
    assert final == 10


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(5, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.schedule(2, outer)
    sim.run()
    assert seen == [("outer", 2), ("inner", 7)]


def test_schedule_at_past_raises():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_max_cycles_guard():
    sim = Simulator(max_cycles=100)

    def reschedule():
        sim.schedule(60, reschedule)

    sim.schedule(60, reschedule)
    with pytest.raises(SimulationError):
        sim.run()


def test_until_predicate_stops_early():
    sim = Simulator()
    count = []
    for cycle in range(1, 11):
        sim.schedule(cycle, lambda: count.append(1))
    sim.run(until=lambda: len(count) >= 3)
    assert len(count) == 3
    assert sim.now == 3


def test_deadlock_reported_when_agents_blocked():
    sim = Simulator()
    sim.add_blocked_reporter(lambda: ["core 0 sleeping on lrwait"])
    sim.schedule(1, lambda: None)
    with pytest.raises(DeadlockError, match="core 0"):
        sim.run()


def test_clean_drain_without_blocked_agents():
    sim = Simulator()
    sim.add_blocked_reporter(lambda: [])
    sim.schedule(1, lambda: None)
    assert sim.run() == 1


def test_run_for_stops_at_deadline():
    sim = Simulator()
    seen = []
    for cycle in (1, 5, 50):
        sim.schedule(cycle, lambda c=cycle: seen.append(c))
    sim.run_for(10)
    assert seen == [1, 5]
    assert sim.now == 10
    sim.run_for(100)
    assert seen == [1, 5, 50]


def test_pending_events_counter():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_run_for_applies_max_cycles_guard():
    sim = Simulator(max_cycles=100)
    fired = []

    def reschedule():
        fired.append(sim.now)
        sim.schedule(60, reschedule)

    sim.schedule(60, reschedule)
    with pytest.raises(SimulationError, match="max_cycles=100"):
        sim.run_for(1000)
    # Same schedule, same stop as run(): nothing fired past max_cycles
    # and the clock stays on the last fired cycle.
    assert fired == [60]
    assert sim.now == 60


def test_run_for_window_ending_before_max_cycles_is_not_runaway():
    sim = Simulator(max_cycles=100)
    sim.schedule(150, lambda: None)
    assert sim.run_for(50) == 50
    assert sim.pending_events == 1


def test_run_for_never_moves_the_clock_backwards():
    sim = Simulator(max_cycles=100)
    sim.schedule(90, lambda: None)
    sim.run_for(95)
    assert sim.now == 95
    sim.max_cycles = 50     # a tighter cap must not rewind the clock
    assert sim.run_for(10) == 95
    with pytest.raises(SimulationError, match="negative"):
        sim.run_for(-1)
    assert sim.now == 95


def test_run_with_until_and_run_for_share_the_guards():
    sim = Simulator(max_cycles=10)
    sim.schedule(5, lambda: None)
    sim.schedule(20, lambda: None)
    with pytest.raises(SimulationError, match="max_cycles=10"):
        sim.run(until=lambda: False)
    assert sim.now == 5
