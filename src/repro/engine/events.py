"""Discrete-event kernel primitives: the timing wheel.

The simulator is event-driven rather than cycle-stepped: every state
change in the modelled hardware (a message arriving at a bank, a core
finishing a compute burst, a Qnode bouncing a ``WakeUpRequest``) is an
event scheduled at an integer cycle.  Sleeping cores therefore cost no
host time, which is what makes simulating the paper's polling-free
primitives cheap: a core blocked in ``LRwait`` produces no events until
the memory controller releases its response.

Determinism
-----------
Events fire in ``(cycle, push order)``: two events scheduled for the
same cycle fire in the order they were scheduled.  Combined with seeded
RNGs this makes every simulation bit-reproducible, which the test suite
relies on.

The wheel
---------
:class:`EventQueue` is a timing wheel (a calendar queue with one bucket
per cycle).  :attr:`~EventQueue.ring` holds :data:`SPAN` per-cycle FIFO
lists; an event ``delay < SPAN`` cycles ahead is appended to slot
``cycle & MASK`` as an ``(fn, arg)`` pair, and the run loop fires it as
``fn(arg)``.  Slot order *is* push order, so same-cycle events need no
comparison at all.  An event at or beyond the ring's span goes to
:attr:`~EventQueue.far`, a :mod:`heapq` of ``(cycle, seq, (fn, arg))``
ordered by the insertion counter ``seq``.  When the run loop reaches a
cycle it first moves that cycle's far entries to the *front* of the
slot: they were pushed while the cycle was still a span or more away,
so before every ring entry of the same cycle.

Every push site uses the same shape — tick the queue's insertion
counter once, then append to the ring or push onto the far heap — so the
counter equals the number of events ever scheduled.

Performance
-----------
A ring push is one ``list.append`` of a 2-tuple; draining a cycle is a
plain ``for`` loop over its slot (which also sees the slot's same-cycle
appends), so the common case pays no heap sift and no key comparison.
Only long delays — compute bursts, deep bank-port queues, time-boxed
horizons — pay for the far heap.  ``SPAN`` is a measured trade-off,
not an option: the scan across an empty ring before a jump to the far
heap and the per-simulator ring allocation grow with it, the share of
far pushes shrinks with it.  Against 16, 256 and 1024 slots, 64 was
the fastest or within 7% of it on every 256-core paper point and on
the 16-core campaign points measured (``BENCH_engine.json``,
``span_sweep``).

:class:`Event` handles exist only where a caller may want to cancel
(:meth:`~repro.engine.simulator.Simulator.schedule_event`): the entry
fires the handle, which calls its callback unless cancelled.  A
cancelled entry stays queued (and counted) until the run loop reaches
its cycle, where it is dropped without moving the clock.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

#: Ring slots of the timing wheel: a power of two, and more than one,
#: so a core's 1-cycle issue stage needs no span test.
SPAN = 64
#: ``cycle & MASK`` is the ring slot of ``cycle``.
MASK = SPAN - 1

#: Sentinel marking a no-argument callback, so ``None`` stays usable as
#: a real argument value.
NO_ARG = object()


class Event:
    """A cancellable handle onto one scheduled callback."""

    __slots__ = ("cycle", "fn", "_queue")

    def __init__(self, cycle: int, fn: Callable[[], None],
                 queue: "EventQueue") -> None:
        self.cycle = cycle
        #: The scheduled callback; ``None`` once cancelled.
        self.fn: Optional[Callable[[], None]] = fn
        self._queue = queue

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def cancel(self) -> None:
        """Mark the event dead; the run loop drops it at its cycle."""
        if self.fn is not None:
            self.fn = None
            self._queue.cancelled = True

    def fire(self) -> None:
        """The queued callback: run ``fn`` unless cancelled."""
        fn = self.fn
        if fn is not None:
            fn()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        flag = " cancelled" if self.cancelled else ""
        return f"Event(cycle={self.cycle}{flag})"


#: The callback an :class:`Event` handle is queued under.
FIRE = Event.fire


def only_dead(slot: list) -> bool:
    """True when ``slot`` holds cancelled handles only."""
    return all(fn is FIRE and arg.fn is None for fn, arg in slot)


def fired_through(slot: list, entry: tuple) -> int:
    """How many entries of ``slot`` fired, ``entry`` the last of them.

    Every push builds a new tuple, so identity finds ``entry`` exactly.
    """
    for i, queued in enumerate(slot):
        if queued is entry:
            return i + 1
    raise AssertionError("entry is not in its slot")


class EventQueue:
    """The timing wheel's storage (see the module docstring).

    :class:`~repro.engine.simulator.Simulator` pushes onto and drains
    these lists directly; components alias them for their own pushes.
    None of the three containers is ever reassigned.
    """

    __slots__ = ("ring", "far", "_counter", "cancelled")

    def __init__(self) -> None:
        #: ``SPAN`` per-cycle FIFO lists of ``(fn, arg)`` pairs.
        self.ring: list = [[] for _ in range(SPAN)]
        #: Heap of ``(cycle, seq, (fn, arg))`` at or beyond the span.
        self.far: list = []
        #: The insertion counter: ticks once per scheduled event.
        self._counter = itertools.count()
        #: Set once any handle is cancelled; from then on the run loop
        #: checks whether a new cycle holds only dead entries.
        self.cancelled = False

    def __len__(self) -> int:
        """Queued entries, cancelled-but-unreached ones included."""
        return sum(map(len, self.ring)) + len(self.far)
