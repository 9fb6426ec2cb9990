"""Two extra atomic-memory variants, registered through the open API.

These exist to prove (and exercise in CI) that the variant layer is
genuinely pluggable: everything below goes through the public
:func:`~repro.memory.variants.register_variant` surface — adapters,
parameter schemas, capability flags, and the area/energy cost-model
hooks all live in this one module, and **no other module references
its classes**: ``repro.memory`` imports it purely for the registration
side effect, the same pattern as the built-in workloads.  Deleting the
module removes the variants and nothing else; registering your own
works exactly the same way (see ``examples/custom_variant.py``).

* ``lrsc_backoff`` — MemPool-style single-slot LR/SC extended with a
  hardware retry throttle: a per-core exponential backoff timer delays
  the *failure response* of a conflicting SC, so software retry loops
  are paced by the memory system instead of hammering the bank.  This
  is the hardware flavour of the 128-cycle software backoff the paper
  gives LRSC in Table II — same contention relief, no software change.
* ``ticket`` — a ticket-style wait queue: per bank, only ``addresses``
  distinct addresses can hold waiters at once, but each tracked
  address admits *unbounded* waiters because a ticket is a counter
  value, not a storage slot (two small counters per tracked address).
  A third design point between LRSCwait (bounded total slots,
  centralized storage) and Colibri (bounded addresses, waiter storage
  distributed to the Qnodes).
"""

from __future__ import annotations

from ..interconnect.messages import MemRequest, Status
from .lrsc import LrscAdapter
from .lrscwait import LrscWaitAdapter
from .variants import AtomicVariant, VariantParam, register_variant

#: Area-model constants (kGE), in the same spirit as the fitted
#: constants of :mod:`repro.power.area` but *estimated*, not fitted —
#: there is no published synthesis for these designs.
BACKOFF_TIMER_KGE = 0.9          # shift-register timer + state, per bank
TICKET_CTRL_KGE = 1.4            # request demux + compare logic, per bank
TICKET_COUNTER_PAIR_KGE = 0.22   # next-ticket + now-serving counters

#: Energy-model prices (pJ) for the extra machinery, charged through
#: the :meth:`AtomicVariant.adapter_energy_pj` hook.
BACKOFF_TICK_PJ = 0.6            # timer running while a retry is held
TICKET_ACCESS_PJ = 0.12          # counter compare/update per bank access


class LrscBackoffAdapter(LrscAdapter):
    """Single-slot LR/SC whose SC failures are throttled in hardware.

    A conflicting SC is not answered immediately: the bank holds the
    failure response for the core's current backoff delay, which
    doubles (up to ``cap``) on every consecutive failure and resets on
    success.  The reservation slot semantics are exactly
    :class:`~repro.memory.lrsc.LrscAdapter`'s.
    """

    def __init__(self, controller, base: int = 2, cap: int = 64) -> None:
        super().__init__(controller)
        self.base = base
        self.cap = cap
        #: core_id -> delay (cycles) its *next* SC failure is held for.
        self._penalty: dict = {}

    def _handle_sc(self, req: MemRequest) -> None:
        if self._reservation == (req.core_id, req.addr):
            self._penalty.pop(req.core_id, None)
            super()._handle_sc(req)
            return
        delay = self._penalty.get(req.core_id, self.base)
        self._penalty[req.core_id] = min(self.cap, 2 * delay)
        self.ctrl.sim.schedule(delay, self._respond_failure, arg=req)

    def _respond_failure(self, req: MemRequest) -> None:
        self.ctrl.respond(req, value=1, status=Status.SC_FAIL)

    @property
    def held_responses(self) -> int:
        """Cores currently subject to a grown backoff delay (tests)."""
        return len(self._penalty)


class TicketAdapter(LrscWaitAdapter):
    """Ticket wait queue: bounded tracked addresses, unbounded waiters.

    Reuses the LRSCwait queue protocol (FIFO serve order, monitoring
    Mwaits, the §III-C cascade) but changes the *capacity* shape: the
    per-bank limit is on distinct addresses with waiters, not on total
    queue entries, because a ticket is a counter value rather than a
    storage slot.  A wait op to an untracked address while all
    ``addresses`` trackers are busy fails with ``QUEUE_FULL``.
    """

    def __init__(self, controller, num_addresses: int = 4,
                 strict: bool = True) -> None:
        super().__init__(controller, queue_slots=None, strict=strict)
        self.num_addresses = num_addresses

    def _handle_wait(self, req: MemRequest) -> None:
        if req.addr not in self._queues \
                and len(self._queues) >= self.num_addresses:
            self.ctrl.respond(req, value=0, status=Status.QUEUE_FULL)
            return
        super()._handle_wait(req)

    @property
    def tracked_addresses(self) -> int:
        """Addresses currently holding waiters (tests)."""
        return len(self._queues)


@register_variant("lrsc_backoff")
class LrscBackoffVariant(AtomicVariant):
    """LR/SC with hardware exponential-backoff retry throttling."""

    description = ("single-slot LR/SC with hardware exponential-backoff "
                   "retry throttling")
    params = {
        "base": VariantParam(default=2, minimum=1,
                             doc="initial failure-hold delay in cycles"),
        "cap": VariantParam(default=64, minimum=1,
                            doc="maximum failure-hold delay in cycles"),
    }
    positional = "cap"
    supports_lrsc = True
    native_method = "lrsc"

    def make_adapter(self, controller, params, num_cores, strict):
        return LrscBackoffAdapter(controller, base=params["base"],
                                  cap=params["cap"])

    def label(self, params):
        return f"LRSC_backoff_{params['cap']}"

    def tile_area_kge(self, params, num_cores, banks=None, cores=None):
        from ..power.area import LRSC_SLOT_KGE, TILE_BANKS
        return (banks or TILE_BANKS) * (LRSC_SLOT_KGE + BACKOFF_TIMER_KGE)

    def adapter_energy_pj(self, params, stats):
        # Each failed SC keeps a backoff timer ticking while the
        # response is held; price it per failure at half the cap (the
        # mean hold of a saturated exponential schedule).
        return stats.total_sc_failures * BACKOFF_TICK_PJ * params["cap"] / 2


@register_variant("ticket")
class TicketVariant(AtomicVariant):
    """Ticket wait queue with bounded tracked addresses."""

    description = ("ticket wait queue: 2 counters per tracked address, "
                   "unbounded waiters per address")
    params = {
        "addresses": VariantParam(
            default=4, minimum=1,
            doc="tracked addresses (counter pairs) per bank"),
    }
    positional = "addresses"
    supports_wait = True
    native_method = "wait"

    def make_adapter(self, controller, params, num_cores, strict):
        return TicketAdapter(controller, num_addresses=params["addresses"],
                             strict=strict)

    def label(self, params):
        return f"Ticket_{params['addresses']}"

    def tile_area_kge(self, params, num_cores, banks=None, cores=None):
        from ..power.area import TILE_BANKS
        return (banks or TILE_BANKS) * (
            TICKET_CTRL_KGE
            + params["addresses"] * TICKET_COUNTER_PAIR_KGE)

    def adapter_energy_pj(self, params, stats):
        # Every bank access passes the ticket compare/update logic.
        return sum(bank.accesses for bank in stats.banks) * TICKET_ACCESS_PJ
