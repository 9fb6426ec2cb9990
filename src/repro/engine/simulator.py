"""The simulation kernel.

:class:`Simulator` owns the clock and the event queue and offers the
scheduling API every modelled component uses.  It knows nothing about
cores, banks or messages — those register *completion conditions* and
*blocked-agent reporting* hooks so the kernel can distinguish a finished
run from a deadlocked one (paper §III: LRSCwait is blocking, so a buggy
kernel that never issues its SCwait deadlocks its successors; we detect
and report exactly that).

Hot-path design
---------------
The event queue is a timing wheel (:mod:`repro.engine.events`): a
ring of :data:`~repro.engine.events.SPAN` per-cycle FIFO lists of
``(fn, arg)`` pairs plus a far heap for events at or beyond the span.
One private loop, :meth:`Simulator._drain`, serves :meth:`~Simulator.run`
(with or without ``until``) and :meth:`~Simulator.run_for`.  Per
occupied cycle it moves the cycle's far entries to the front of the
slot (a far-only cycle takes them straight into its empty slot), runs
the runaway / deadline guards, writes the clock once and fires the
slot with a plain ``for fn, arg in slot: fn(arg)`` loop, which also
picks up the slot's same-cycle appends; only a run with ``until``
tests the predicate after each event.  Between cycles it scans forward
to the next occupied slot, or jumps to the far heap's top when the
ring is empty.  An event costs one tuple, one ``list.append`` and one
call: no heap sift and no key comparison.  That matters most on the
densest traffic, the LR/SC retry storms, where a binary heap's push
and pop are a large share of each event (``BENCH_engine.json`` records
the engine's self time under both queues).  The gain depends on
density: the wheel pays a fixed cost per occupied cycle (the scan, the
combined guard test, the clock write, the loop set-up and the slot
clear), so at about one and a half events per occupied cycle or fewer
it loses to a heap: the two sparsest 256-core units ran 2-13% slower
when the wheel landed.  ``paper256`` averages 3.1 events per occupied
cycle and ``campaign_cold`` 2.6; timelines under two are about a fifth
of either workload's host time (``BENCH_engine.json``, ``density``).

The rest of the per-event cost is the Python call chain of each memory
request, so that chain is kept to one call per hop, each touching its
object once.  A request climbs

* the kernel's generator: one RMW kernel is one generator
  (:mod:`repro.sync.rmw`), so the core resumes one frame per command.
  Library kernels (the RMW loops, the locks, the queue) yield their
  ``MemCmd``/``Compute``/``RETIRE`` commands themselves: a
  :class:`~repro.cores.api.CoreApi` helper would add one generator per
  command, while a ``yield from lock.acquire(api)`` level costs only a
  delegation;
* ``Core._advance``, which issues the command (the request object, the
  counters, the 1-cycle issue-stage entry), and after that stage
  ``Core._send``, which decodes the bank inline;
* ``Network.send_request``, one flat read of the topology's route
  table;
* ``BankController.receive``, which services the message in place when
  the port is free by calling the adapter class's service function for
  the op: a table indexed by ``Op.index``, built once per class;
* ``BankController.respond`` and ``Network.send_response``, which
  delivers the response straight into ``Core._advance``: the response
  accounting sits at its top, and the kernel resumes in the same call.

The core calls its state-change hook only while a ``core_state``
subscriber is attached, and every observation site on that chain is
one load and one ``is not None`` branch on the
:class:`~repro.telemetry.hub.Telemetry` hub, the simulator's only
recording path.  ``tests/engine/test_call_budget.py``
pins the number of calls per request for each RMW method, lock and
queue method.

Function bodies on the request path name the members of ``Op`` and
``Status`` through the module-level names of
:mod:`repro.interconnect.messages` (``LW`` … ``MWAIT``, ``OK``,
``SC_FAIL``, ``QUEUE_FULL``): on Python <= 3.11 ``EnumType`` defines
``__getattr__``, so each ``Op.X`` load takes the slow slot hook (about
100 ns against 10 ns for a global on 3.11).  The hook runs no Python
code, so the call budget cannot see it;
``tests/engine/test_enum_loads.py`` guards the source instead.

Those hops push onto :attr:`Simulator.ring` / :attr:`Simulator.far`
directly, in the one push shape :meth:`Simulator.schedule` uses: tick
:attr:`Simulator.seq`, then append ``(fn, arg)`` to slot
``cycle & MASK`` when ``cycle - now < SPAN``, else push
``(cycle, seq, (fn, arg))`` onto the far heap.  They draw in exactly
the order the ``schedule`` calls they replace did, so the event stream
is unchanged.  A direct push uses only a delay that is positive by
construction: the 1-cycle issue stage, a ``Compute`` of ``cycles > 0``,
a route latency (``LatencyConfig.validate`` guarantees each is
``>= 1``) or a port slot, which is never before its arrival.
:meth:`schedule` and :meth:`schedule_at` keep their checks for every
other caller, Colibri's SuccessorUpdates and WakeUpRequests among them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import length_hint
try:
    from operator import call
except ImportError:     # Python 3.10: ``operator.call`` is new in 3.11
    def call(fn, /):
        return fn()
from typing import Callable, Optional

from .errors import DeadlockError, SimulationError
from .events import MASK, NO_ARG, SPAN, EventQueue, fired_through


class Simulator:
    """Deterministic discrete-event simulator with an integer cycle clock."""

    __slots__ = ("now", "max_cycles", "telemetry", "_queue",
                 "ring", "far", "seq", "_blocked_reporters", "_finished")

    def __init__(self, max_cycles: int = 100_000_000,
                 telemetry: Optional["Telemetry"] = None) -> None:
        self.now: int = 0
        self.max_cycles = max_cycles
        if telemetry is None:
            # Deferred import: at construction time every module is
            # loaded, so this cannot cycle regardless of the order in
            # which the engine/telemetry packages import each other.
            from ..telemetry.hub import Telemetry
            telemetry = Telemetry()
        #: Telemetry hook hub shared by every component of this
        #: simulation; probes subscribe here (see :mod:`repro.telemetry`).
        self.telemetry = telemetry
        self._queue = EventQueue()
        #: Aliases into the wheel for the zero-indirection hot path (see
        #: "Hot-path design" above); the queue never reassigns them, so
        #: components may alias them too.
        self.ring = self._queue.ring
        self.far = self._queue.far
        self.seq = self._queue._counter
        #: Callbacks returning a human-readable description of any agent
        #: still blocked; consulted when the event queue drains.
        self._blocked_reporters: list = []
        self._finished = False

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: int, fn: Callable, arg=NO_ARG,
                 _heappush=heappush, _next=next) -> None:
        """Run ``fn`` ``delay`` cycles from now (``delay >= 0``).

        Events are fire-and-forget: no handle, no cancellation.  With
        ``arg`` the callback fires as ``fn(arg)`` — delivery paths
        use this to avoid allocating a closure per message.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} at cycle {self.now}")
        if arg is NO_ARG:
            fn, arg = call, fn
        if delay < SPAN:
            _next(self.seq)
            self.ring[(self.now + delay) & MASK].append((fn, arg))
        else:
            _heappush(self.far,
                      (self.now + delay, _next(self.seq), (fn, arg)))

    def schedule_at(self, cycle: int, fn: Callable, arg=NO_ARG) -> None:
        """Run ``fn`` at absolute ``cycle`` (must not be in the past)."""
        if cycle < self.now:
            raise SimulationError(
                f"cannot schedule at {cycle}, now is {self.now}")
        self.schedule(cycle - self.now, fn, arg)

    # -- deadlock detection hooks -------------------------------------------

    def add_blocked_reporter(self, fn: Callable[[], list]) -> None:
        """Register a callback listing agents that are still blocked.

        Each callback returns a list of strings describing blocked
        agents (empty when none).  When the event queue drains, a
        non-empty union means deadlock.
        """
        self._blocked_reporters.append(fn)

    def _blocked_agents(self) -> list:
        agents: list = []
        for reporter in self._blocked_reporters:
            agents.extend(reporter())
        return agents

    # -- run loop ------------------------------------------------------------

    def run(self, until: Optional[Callable[[], bool]] = None) -> int:
        """Drain events until done; return the final cycle.

        ``until`` is an optional predicate evaluated after every event;
        when it returns ``True`` the run stops early (used by
        time-boxed workloads).  If the queue drains while registered
        reporters still list blocked agents, :class:`DeadlockError` is
        raised with the agent list — this is the §III progress-guarantee
        failure mode made observable.
        """
        if not self._drain(until, None):
            blocked = self._blocked_agents()
            if blocked:
                raise DeadlockError(
                    "event queue drained with blocked agents: "
                    + "; ".join(blocked))
        self._finished = True
        return self.now

    def run_for(self, cycles: int) -> int:
        """Run until the clock passes ``self.now + cycles`` or events drain.

        Unlike :meth:`run`, draining the queue early is *not* treated as
        deadlock here; time-boxed workloads legitimately stop issuing
        work.  The window ends at ``max_cycles`` at the latest: an event
        inside the window but past ``max_cycles`` raises
        :class:`SimulationError`, as in :meth:`run`.  The clock then
        moves to the window's end and never backwards.  Returns the
        final cycle.
        """
        if cycles < 0:
            raise SimulationError(
                f"negative run_for window {cycles} at cycle {self.now}")
        deadline = self.now + cycles
        self._drain(None, deadline)
        self.now = max(self.now, min(deadline, self.max_cycles))
        return self.now

    def _drain(self, until: Optional[Callable[[], bool]],
               deadline: Optional[int], _heappop=heappop) -> bool:
        """The one drain loop behind :meth:`run` and :meth:`run_for`.

        Fires events in ``(cycle, push order)``.  Returns ``True`` when
        it stopped early — ``until`` held after an event (the rest of
        the cycle stays queued), or the next event lies past
        ``deadline`` — and ``False`` when the queue ran dry.
        """
        ring = self.ring
        far = self.far
        max_cycles = self.max_cycles
        # Past ``limit`` either the window ends (``deadline``) or the
        # run is a runaway (``max_cycles``).
        limit = max_cycles if deadline is None else min(deadline, max_cycles)
        # Far entries never sit at the clock here: the loop merges them
        # at their cycle, and a window jump stops short of them.
        now = cycle = self.now
        slot = ring[now & MASK]
        while True:
            if not slot:
                # Scan to the next occupied cycle.  The ring only holds
                # cycles in [cycle, cycle + SPAN), and the scan stops at
                # the far heap's top; an empty ring jumps straight there.
                stop = cycle + SPAN
                if far and far[0][0] < stop:
                    stop = far[0][0]
                while cycle < stop and not ring[cycle & MASK]:
                    cycle += 1
                if cycle == stop:
                    if not far:
                        return False
                    cycle = far[0][0]
                slot = ring[cycle & MASK]
            if cycle != now:
                # One combined test keeps the rare cases off the common
                # path: a bound passed or far entries due.
                if cycle > limit or far and far[0][0] == cycle:
                    if cycle > limit and deadline is not None \
                            and cycle > deadline:
                        return True     # the far entries stay far
                    if far and far[0][0] == cycle:
                        # Far entries were pushed a span or more ahead,
                        # so before every ring entry of this cycle; a
                        # far-only cycle takes them straight in.
                        if slot:
                            due = []
                            while far and far[0][0] == cycle:
                                due.append(_heappop(far)[2])
                            slot[:0] = due
                        else:
                            while far and far[0][0] == cycle:
                                slot.append(_heappop(far)[2])
                    if cycle > limit:
                        raise SimulationError(
                            f"exceeded max_cycles={max_cycles} "
                            f"(runaway simulation?)")
                now = self.now = cycle
            # What fired, the raising entry included, leaves the slot
            # on an exception, so a caller that catches and runs on
            # fires it once only and ``pending_events`` stays exact.
            if until is None:
                entries = iter(slot)
                try:
                    for fn, arg in entries:
                        fn(arg)
                except BaseException:
                    # The iterator stands just past the raising entry.
                    del slot[:len(slot) - length_hint(entries)]
                    raise
            else:
                try:
                    for entry in slot:
                        entry[0](entry[1])
                        if until():
                            del slot[:fired_through(slot, entry)]
                            return True
                except BaseException:
                    del slot[:fired_through(slot, entry)]
                    raise
            slot.clear()
            cycle += 1
            slot = ring[cycle & MASK]

    @property
    def pending_events(self) -> int:
        """Number of queued entries."""
        return len(self._queue)
