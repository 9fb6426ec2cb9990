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
``schedule``/``schedule_at`` allocate nothing but the raw heap entry —
no :class:`~repro.engine.events.Event` handle — because no modelled
component ever cancels (use :meth:`Simulator.schedule_event` when you
need a cancellable handle).  One private loop, :meth:`Simulator._drain`,
serves :meth:`~Simulator.run` (with or without ``until``) and
:meth:`~Simulator.run_for`.  It drains the heap directly with
:mod:`heapq` and writes the clock only when the cycle actually changes:
a burst of same-cycle events costs one clock update, and the
runaway / monotonicity / deadline guards run per cycle instead of per
event.  The ``until`` predicate is called only when one is installed.
Together with the C-speed list-entry comparisons this roughly halves
the per-event cost of the seed kernel (see ``BENCH_engine.json``).

The heap itself is a small share of a simulation (``heappush`` +
``heappop`` are ~5% of a cProfile of the 256-core paper points), which
is why it is not replaced by a calendar queue.  The cost is the Python
call chain of each memory request (core → network → bank → adapter →
core), so that chain is fused into one frame per hop that touches each
object once: the core issues inside its kernel loop and decodes the
bank inline; the network reads the topology's flat route table once
per message; the bank controller services a message in place when its
port is free; the adapter dispatches through a per-class table indexed
by ``Op.index``; and the core calls its state-change hooks only while
a tracer or a ``core_state`` subscriber is attached.

Those hops push their entries directly onto :attr:`Simulator.heap`,
drawing sequence numbers from :attr:`Simulator.seq` in exactly the
order the ``schedule`` calls they replace did, so the event stream is
unchanged.  A direct push uses only a delay that is positive by
construction: the 1-cycle issue stage, a ``Compute`` of ``cycles > 0``,
a route latency (``LatencyConfig.validate`` guarantees each is
``>= 1``) or a port slot, which is never before its arrival.
:meth:`schedule` and :meth:`schedule_at` keep their checks for every
other caller.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from .errors import DeadlockError, SimulationError
from .events import Event, EventQueue, NO_ARG, PRIORITY_NORMAL
from .trace import Tracer


class Simulator:
    """Deterministic discrete-event simulator with an integer cycle clock."""

    __slots__ = ("now", "max_cycles", "tracer", "telemetry", "_queue",
                 "heap", "seq", "_blocked_reporters", "_finished")

    def __init__(self, max_cycles: int = 100_000_000,
                 tracer: Optional[Tracer] = None,
                 telemetry: Optional["Telemetry"] = None) -> None:
        self.now: int = 0
        self.max_cycles = max_cycles
        self.tracer = tracer or Tracer(enabled=False)
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
        #: Aliases into the queue's internals for the zero-indirection
        #: hot path (see "Hot-path design" above); the queue never
        #: reassigns either, so components may alias them too.
        self.heap = self._queue._heap
        self.seq = self._queue._counter
        #: Callbacks returning a human-readable description of any agent
        #: still blocked; consulted when the event queue drains.
        self._blocked_reporters: list = []
        self._finished = False

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: int, fn: Callable,
                 priority: int = PRIORITY_NORMAL, arg=NO_ARG,
                 _heappush=heappush, _next=next) -> None:
        """Run ``fn`` ``delay`` cycles from now (``delay >= 0``).

        This is the fire-and-forget fast path: it returns no handle.
        Use :meth:`schedule_event` if the event may need cancelling.
        With ``arg`` the callback fires as ``fn(arg)`` — delivery paths
        use this to avoid allocating a closure per message.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} at cycle {self.now}")
        _heappush(self.heap,
                  [self.now + delay, priority, _next(self.seq), fn, arg])

    def schedule_at(self, cycle: int, fn: Callable,
                    priority: int = PRIORITY_NORMAL, arg=NO_ARG,
                    _heappush=heappush, _next=next) -> None:
        """Run ``fn`` at absolute ``cycle`` (must not be in the past)."""
        if cycle < self.now:
            raise SimulationError(
                f"cannot schedule at {cycle}, now is {self.now}")
        _heappush(self.heap,
                  [cycle, priority, _next(self.seq), fn, arg])

    def schedule_event(self, delay: int, fn: Callable[[], None],
                       priority: int = PRIORITY_NORMAL) -> Event:
        """Like :meth:`schedule` but returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} at cycle {self.now}")
        return self._queue.push(self.now + delay, fn, priority)

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
               deadline: Optional[int], _heappop=heappop,
               _heappush=heappush) -> bool:
        """The one drain loop behind :meth:`run` and :meth:`run_for`.

        Fires events in ``(cycle, priority, seq)`` order.  Returns
        ``True`` when it stopped early — ``until`` held after an event,
        or the next live event lies past ``deadline`` (that entry goes
        back on the heap) — and ``False`` when the heap ran dry.
        """
        heap = self.heap
        max_cycles = self.max_cycles
        # One bound test per new cycle: past ``limit`` either the window
        # ends (``deadline``) or the run is a runaway (``max_cycles``).
        limit = max_cycles if deadline is None else min(deadline, max_cycles)
        no_arg = NO_ARG
        now = self.now
        while heap:
            entry = _heappop(heap)
            fn = entry[3]
            if fn is None:              # cancelled, dropped lazily
                if deadline is not None and entry[0] > deadline:
                    _heappush(heap, entry)
                    return True
                continue
            cycle = entry[0]
            if cycle != now:
                if cycle > limit:
                    if deadline is not None and cycle > deadline:
                        _heappush(heap, entry)
                        return True
                    raise SimulationError(
                        f"exceeded max_cycles={max_cycles} "
                        f"(runaway simulation?)")
                if cycle < now:
                    raise SimulationError(
                        "event queue went backwards in time")
                now = self.now = cycle
            arg = entry[4]
            if arg is no_arg:
                fn()
            else:
                fn(arg)
            if until is not None and until():
                return True
        return False

    @property
    def pending_events(self) -> int:
        """Number of queued entries (cancelled-but-unpopped included)."""
        return len(self.heap)
