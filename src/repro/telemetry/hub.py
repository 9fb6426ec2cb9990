"""The telemetry hook hub: near-zero-cost observation points.

Every :class:`~repro.engine.simulator.Simulator` owns one
:class:`Telemetry` hub, and every modelled component holds a reference
to it.  A component guards each observation site with one attribute
load and one ``is not None`` branch::

    cb = self._telemetry.on_bank_access
    if cb is not None:
        cb(now, self.bank_id, msg, queued)

so probes that are not installed cost nothing but that branch.  A
site that must build a payload (e.g. a protocol record's detail
string) builds it only inside that branch.  The hub is the
simulator's only recording path: the protocol log
(:class:`~repro.telemetry.trace.Tracer`) is a probe on it like any
other.

Probes subscribe callbacks by hook name; the first subscriber is
installed directly (no dispatch indirection), further subscribers
promote the slot to a fan-out closure that preserves subscription
order, so multi-probe runs stay deterministic.

This module must stay free of ``repro`` imports: the simulator imports
it, so anything it pulled in would cycle back through the engine.
"""

from __future__ import annotations

from typing import Callable

#: Hook points, in dispatch-payload order:
#:
#: * ``bank_access(cycle, bank_id, msg, queued)`` — a request or
#:   WakeUpRequest entered a bank port; ``queued`` is how many cycles
#:   it waits behind the busy port (0 = serviced on arrival).
#: * ``bank_service(cycle, bank_id, msg)`` — a bank port starts
#:   servicing ``msg`` this cycle (after any queueing; the adapter has
#:   not yet seen it).
#: * ``bank_response(cycle, bank_id, resp)`` — a bank sent a
#:   :class:`~repro.interconnect.messages.MemResponse` (failures show
#:   retry pressure).
#: * ``core_state(cycle, core_id, state)`` — a core FSM transition
#:   (``active``/``stalled``/``sleeping``/``finished``).
#: * ``queue_depth(cycle, bank_id, depth)`` — a bank adapter's
#:   reservation/wait-queue occupancy changed.
#: * ``message(cycle, kind, cls, latency, hops)`` — the interconnect
#:   accepted a message of ``kind`` over a route of distance class
#:   ``cls`` (``local``/``group``/``global``).
#: * ``response(cycle, core_id, resp, waited)`` — a core received the
#:   response to its outstanding request after ``waited`` cycles.
#: * ``protocol(cycle, bank_id, kind, detail)`` — an adapter's protocol
#:   transition, e.g. Colibri's ``colibri_alloc``/``colibri_free`` of a
#:   queue register pair; ``detail`` is a human-readable string.
HOOKS = ("bank_access", "bank_service", "bank_response", "core_state",
         "queue_depth", "message", "response", "protocol")


class Telemetry:
    """Dispatch hub for the simulator's observation hooks.

    Hook slots (``on_<hook>``) are ``None`` until someone subscribes,
    so observation sites pay only a load-and-branch when telemetry is
    off.  Subscription is append-only for the lifetime of one run;
    probes are per-run objects, so nothing ever unsubscribes.
    """

    __slots__ = tuple("on_" + hook for hook in HOOKS) + ("_subscribers",)

    def __init__(self) -> None:
        for hook in HOOKS:
            setattr(self, "on_" + hook, None)
        self._subscribers = {hook: [] for hook in HOOKS}

    def subscribe(self, hook: str, fn: Callable) -> None:
        """Attach ``fn`` to ``hook``; callbacks fire in subscription order."""
        try:
            subs = self._subscribers[hook]
        except KeyError:
            raise ValueError(
                f"unknown telemetry hook {hook!r}; hooks: {', '.join(HOOKS)}")
        subs.append(fn)
        if len(subs) == 1:
            target = fn
        else:
            chain = tuple(subs)

            def target(*args, _chain=chain):
                for receiver in _chain:
                    receiver(*args)

        setattr(self, "on_" + hook, target)

    def subscribers(self, hook: str) -> tuple:
        """The callbacks attached to ``hook``, in dispatch order."""
        return tuple(self._subscribers[hook])

    @property
    def active(self) -> bool:
        """True when at least one hook has a subscriber."""
        return any(self._subscribers[hook] for hook in HOOKS)
