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

Scheduled events cannot be cancelled: no component needs it, and the
run loop then never has to skip a dead entry.
"""

from __future__ import annotations

import itertools

#: Ring slots of the timing wheel: a power of two, and more than one,
#: so a core's 1-cycle issue stage needs no span test.
SPAN = 64
#: ``cycle & MASK`` is the ring slot of ``cycle``.
MASK = SPAN - 1

#: Sentinel marking a no-argument callback, so ``None`` stays usable as
#: a real argument value.
NO_ARG = object()


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

    __slots__ = ("ring", "far", "_counter")

    def __init__(self) -> None:
        #: ``SPAN`` per-cycle FIFO lists of ``(fn, arg)`` pairs.
        self.ring: list = [[] for _ in range(SPAN)]
        #: Heap of ``(cycle, seq, (fn, arg))`` at or beyond the span.
        self.far: list = []
        #: The insertion counter: ticks once per scheduled event.
        self._counter = itertools.count()

    def __len__(self) -> int:
        """Queued entries."""
        return sum(map(len, self.ring)) + len(self.far)
