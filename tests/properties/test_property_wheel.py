"""The timing wheel against a reference binary-heap event queue.

The reference keeps one :mod:`heapq` keyed by ``(cycle, seq)`` — the
queue the simulator used before the wheel.  Random programs schedule
through every entry point (``schedule`` with and without an argument,
``schedule_at``), spawn more work from inside callbacks (delay 0
included) and advance time in chunks: ``run_for`` windows,
``run(until=...)`` stops, pushes between chunks.  Both sides must fire the same events in the same
order at the same cycles, and agree on ``now`` and ``pending_events``
after every chunk.
"""

import heapq

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.events import SPAN
from repro.engine.simulator import Simulator

#: Events a program may schedule in total.
MAX_EVENTS = 160


class Reference:
    """``(cycle, seq)`` heap."""

    def __init__(self) -> None:
        self.now = 0
        self.heap: list = []
        self.seq = 0

    def push(self, delay: int, fn) -> None:
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn))
        self.seq += 1

    def _fire_next(self) -> None:
        self.now, _seq, fn = heapq.heappop(self.heap)
        fn()

    def run(self, until=None) -> None:
        while self.heap:
            self._fire_next()
            if until is not None and until():
                return

    def run_for(self, cycles: int) -> None:
        deadline = self.now + cycles
        while self.heap and self.heap[0][0] <= deadline:
            self._fire_next()
        self.now = max(self.now, deadline)

    @property
    def pending_events(self) -> int:
        return len(self.heap)


class Program:
    """Drives one queue; event ``i`` runs step ``plan[i % len(plan)]``."""

    def __init__(self, queue, plan) -> None:
        self.queue = queue
        self.plan = plan
        self.log: list = []
        self.spawned = 0

    def spawn(self, kind: str, delay: int) -> None:
        if self.spawned >= MAX_EVENTS:
            return
        eid = self.spawned
        self.spawned += 1
        queue = self.queue
        if isinstance(queue, Reference):
            queue.push(delay, lambda: self.fire(eid))
        elif kind == "thunk":
            queue.schedule(delay, lambda: self.fire(eid))
        elif kind == "arg":
            queue.schedule(delay, self.fire, arg=eid)
        else:
            queue.schedule_at(queue.now + delay, self.fire, arg=eid)

    def fire(self, eid: int) -> None:
        self.log.append((eid, self.queue.now))
        for kind, delay in self.plan[eid % len(self.plan)]:
            self.spawn(kind, delay)

    def chunk(self, step) -> None:
        op, amount = step
        if op == "run_for":
            self.queue.run_for(amount)
        elif op == "until":
            mark = len(self.log) + amount
            self.queue.run(until=lambda: len(self.log) >= mark)
        else:
            self.spawn(op, amount)


delays = st.one_of(
    st.integers(0, 3 * SPAN),
    st.sampled_from([0, 1, SPAN - 1, SPAN, SPAN + 1, 2 * SPAN]))
kinds = st.sampled_from(["thunk", "arg", "at"])
spawns = st.lists(st.tuples(kinds, delays), max_size=3)
chunks = st.one_of(
    st.tuples(st.just("run_for"), st.integers(0, 3 * SPAN)),
    st.tuples(st.just("until"), st.integers(1, 20)),
    st.tuples(kinds, delays))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(initial=st.lists(st.tuples(kinds, delays), min_size=1, max_size=8),
       plan=st.lists(spawns, min_size=1, max_size=12),
       schedule=st.lists(chunks, max_size=10))
def test_wheel_fires_in_reference_order(initial, plan, schedule):
    wheel = Program(Simulator(), plan)
    reference = Program(Reference(), plan)
    for program in (wheel, reference):
        for kind, delay in initial:
            program.spawn(kind, delay)
    for step in schedule + [("until", 10 ** 9)]:
        wheel.chunk(step)
        reference.chunk(step)
        assert wheel.log == reference.log
        assert wheel.queue.now == reference.queue.now
        assert wheel.queue.pending_events == \
            reference.queue.pending_events
