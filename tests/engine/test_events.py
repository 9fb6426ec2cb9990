"""Unit tests for the timing wheel behind the simulator's event queue."""

import pytest

from repro.engine.errors import SimulationError
from repro.engine.events import SPAN
from repro.engine.simulator import Simulator


def test_pop_orders_by_cycle():
    sim = Simulator()
    order = []
    sim.schedule(5, lambda: order.append("b"))
    sim.schedule(1, lambda: order.append("a"))
    sim.schedule(9, lambda: order.append("c"))
    sim.schedule(3 * SPAN, lambda: order.append("e"))   # far heap
    sim.schedule(SPAN, lambda: order.append("d"))       # far heap
    sim.run()
    assert order == ["a", "b", "c", "d", "e"]
    assert sim.now == 3 * SPAN


def test_same_cycle_fifo_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(3, fired.append, arg=i)
    sim.run()
    assert fired == list(range(10))


def test_zero_delay_pushes_join_the_cycle_being_fired():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0, fired.append, arg="same cycle")
        sim.schedule(1, fired.append, arg="next cycle")

    sim.schedule(2, first)
    sim.schedule(2, fired.append, arg="second")
    sim.run()
    assert fired == ["first", "second", "same cycle", "next cycle"]


def test_far_entries_fire_before_same_cycle_ring_entries():
    sim = Simulator()
    fired = []
    target = 2 * SPAN
    sim.schedule_at(target, fired.append, arg="far")     # beyond the span
    sim.run_for(target - 1)                               # now inside it
    sim.schedule_at(target, fired.append, arg="ring")
    sim.schedule(1, fired.append, arg="ring, pushed last")
    sim.run()
    assert fired == ["far", "ring", "ring, pushed last"]


def test_windows_ending_on_and_before_far_entries():
    sim = Simulator()
    fired = []
    sim.schedule(SPAN + 5, fired.append, arg="far")
    sim.run_for(SPAN + 5)        # the window ends on the entry's cycle
    assert fired == ["far"]
    sim.schedule(SPAN, fired.append, arg="far again")
    sim.run_for(SPAN - 1)        # stops one cycle short
    assert fired == ["far"] and sim.pending_events == 1
    sim.run_for(1)
    assert fired == ["far", "far again"] and sim.now == 2 * SPAN + 5


def test_negative_cycle_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(-1, lambda: None)
    assert sim.pending_events == 0


def test_len_counts_ring_and_far_entries():
    sim = Simulator()
    for delay in (0, 1, SPAN - 1, SPAN, 10 * SPAN):
        sim.schedule(delay, lambda: None)
    assert sim.pending_events == 5
    sim.run_for(SPAN - 1)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_until_stop_keeps_the_rest_of_the_cycle():
    sim = Simulator()
    fired = []
    for i in range(4):
        sim.schedule(2, fired.append, arg=i)
    sim.run(until=lambda: len(fired) == 2)
    assert fired == [0, 1] and sim.now == 2 and sim.pending_events == 2
    sim.run()
    assert fired == [0, 1, 2, 3]


def test_a_raising_callback_leaves_only_the_unfired_entries_queued():
    sim = Simulator()
    fired = []

    def boom():
        fired.append("boom")
        raise RuntimeError("component fault")

    sim.schedule_at(SPAN, fired.append, arg="far")     # prepended at SPAN
    sim.schedule(SPAN - 1, lambda: None)               # now inside the span
    sim.run_for(SPAN - 1)
    sim.schedule(1, fired.append, arg="before")
    sim.schedule(1, boom)
    sim.schedule(1, fired.append, arg="after")
    sim.schedule(2, fired.append, arg="next cycle")
    with pytest.raises(RuntimeError):
        sim.run()
    assert fired == ["far", "before", "boom"]
    assert sim.pending_events == 2
    sim.run()
    assert fired == ["far", "before", "boom", "after", "next cycle"]


def test_a_raising_repeat_of_a_fired_entry_leaves_exactly_the_rest():
    """The same ``(fn, arg)`` twice in one slot, the second raising:
    only the fired prefix leaves, on a far-only cycle too."""
    sim = Simulator()
    fired = []

    def second_raises(tag):
        fired.append(tag)
        if fired.count(tag) == 2:
            raise RuntimeError("second call")

    for _ in range(2):
        sim.schedule(SPAN + 3, second_raises, arg="x")  # far-only cycle
    sim.schedule(SPAN + 3, fired.append, arg="after")
    with pytest.raises(RuntimeError):
        sim.run()
    assert fired == ["x", "x"] and sim.pending_events == 1
    sim.run()
    assert fired == ["x", "x", "after"] and sim.now == SPAN + 3


def test_every_scheduled_event_ticks_the_counter():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(SPAN * 2, lambda: None)
    sim.schedule_at(3, lambda: None)
    assert next(sim._queue._counter) == 3
