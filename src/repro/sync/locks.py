"""Lock implementations (the contenders of Fig. 4).

Every lock is a small object holding pre-allocated SPM addresses plus
generator methods ``acquire(api)`` / ``release(api)`` used with
``yield from`` inside kernels.  The roster matches the paper's lock
comparison (§V-A, Fig. 4):

* :class:`AmoSpinLock` — test-and-set via ``amoswap`` with a 128-cycle
  randomized backoff ("Atomic Add lock");
* :class:`LrscSpinLock` — test-and-set via LR/SC with backoff
  ("LRSC lock");
* :class:`ColibriSpinLock` — test-and-set via LRwait/SCwait with
  backoff ("Colibri lock"): polling still happens when the lock is
  observed taken, but the RMW itself never retries;
* :class:`MwaitMcsLock` — an MCS queue lock where waiters sleep on
  their own tile-local node with **Mwait** instead of spinning
  ("Mwait lock"); completely polling-free on wait-capable hardware;
* :class:`TicketLock` — fetch-and-add ticket lock (not in the paper's
  figure; used by the ablation benches as a fairness-preserving
  spin-lock reference).

Construction goes through ``create(machine)`` classmethods that
allocate the lock's memory, so example code reads naturally::

    lock = MwaitMcsLock.create(machine)

    def kernel(api):
        yield from lock.acquire(api)
        ...  # critical section
        yield from lock.release(api)

Like the loops of :mod:`repro.sync.rmw`, the lock methods yield the
core's commands (:class:`~repro.cores.api.MemCmd`,
:class:`~repro.cores.api.Compute`) themselves instead of going through
the :class:`~repro.cores.api.CoreApi` helpers, and read ``.value`` and
``.status`` from the responses; the commands, their cycle counts and
the ``api.rng`` draws are exactly those of the helpers.  A ``Compute``
of zero cycles schedules no event, like the helper that skipped it.
"""

from __future__ import annotations

from ..cores.api import Compute, CoreApi, MemCmd
from ..interconnect.messages import (
    AMO_ADD, AMO_SWAP, LR, LRWAIT, LW, MWAIT, OK, QUEUE_FULL, SC, SCWAIT, SW)
from .backoff import (
    ExponentialBackoff,
    FixedBackoff,
    PAPER_LOCK_BACKOFF,
    QUEUE_FULL_BACKOFF,
)

#: Lock-word values.
UNLOCKED, LOCKED = 0, 1

#: Adaptive backoff for *lost races on a free lock* (thundering herd).
#: A fixed window cannot serve both 4 and 256 contenders; the race
#: path therefore adapts, while the observed-taken path keeps the
#: paper's fixed 128-cycle wait.  The cap is deliberately moderate:
#: larger caps drain the herd faster but can starve a loser behind a
#: lock that is continuously re-acquired.
HERD_BACKOFF = ExponentialBackoff(base=16, cap=512)


class AmoSpinLock:
    """Test-and-test-and-set spin lock on one word, via ``amoswap``.

    The classic TTAS refinement: poll with plain loads while the lock
    is observed taken (no write traffic, fixed backoff) and issue the
    ``amoswap`` only after observing it free.  Lost swap races back off
    adaptively.
    """

    def __init__(self, lock_addr: int, backoff=PAPER_LOCK_BACKOFF) -> None:
        self.lock_addr = lock_addr
        self.backoff = backoff

    @classmethod
    def create(cls, machine, backoff=PAPER_LOCK_BACKOFF) -> "AmoSpinLock":
        """Allocate the lock word and return the lock."""
        return cls(machine.allocator.alloc_interleaved(1), backoff)

    def acquire(self, api: CoreApi):
        """TTAS loop: test until free, then swap; repeat on lost races."""
        races = 0
        # Optimistic first grab: free-lock acquisitions cost one AMO.
        resp = yield MemCmd(AMO_SWAP, self.lock_addr, LOCKED)
        if resp.value == UNLOCKED:
            return
        attempt = 0
        while True:
            resp = yield MemCmd(LW, self.lock_addr)
            if resp.value == UNLOCKED:
                resp = yield MemCmd(AMO_SWAP, self.lock_addr, LOCKED)
                if resp.value == UNLOCKED:
                    return
                races += 1
                yield Compute(HERD_BACKOFF.delay(api.rng, races))
                continue
            yield Compute(self.backoff.delay(api.rng, attempt))
            attempt += 1

    def release(self, api: CoreApi):
        """Store UNLOCKED; a plain store suffices for TAS locks."""
        yield MemCmd(SW, self.lock_addr, UNLOCKED)


class LrscSpinLock:
    """Test-and-test-and-set spin lock built from plain LR/SC.

    The LR doubles as the test.  A lock observed taken backs off with
    the paper's fixed window; a *failed SC on a free lock* means the
    herd is racing (another core's LR stole the single reservation
    slot), which a fixed window cannot drain — that path backs off
    adaptively, like Anderson's classic analysis prescribes.
    """

    def __init__(self, lock_addr: int, backoff=PAPER_LOCK_BACKOFF) -> None:
        self.lock_addr = lock_addr
        self.backoff = backoff

    @classmethod
    def create(cls, machine, backoff=PAPER_LOCK_BACKOFF) -> "LrscSpinLock":
        """Allocate the lock word and return the lock."""
        return cls(machine.allocator.alloc_interleaved(1), backoff)

    def acquire(self, api: CoreApi):
        """LR as test; SC only when observed free; adaptive race path."""
        attempt = 0
        races = 0
        while True:
            resp = yield MemCmd(LR, self.lock_addr)
            if resp.value == UNLOCKED:
                resp = yield MemCmd(SC, self.lock_addr, LOCKED)
                if resp.status is OK:
                    return
                races += 1
                yield Compute(HERD_BACKOFF.delay(api.rng, races))
                continue
            # RISC-V allows abandoning a reservation without an SC, so
            # the taken-lock path just backs off and retries the LR.
            yield Compute(self.backoff.delay(api.rng, attempt))
            attempt += 1

    def release(self, api: CoreApi):
        """Store UNLOCKED."""
        yield MemCmd(SW, self.lock_addr, UNLOCKED)


class ColibriSpinLock:
    """Test-and-set spin lock built from LRwait/SCwait.

    Unlike plain LR, *every* LRwait must be closed by an SCwait so the
    reservation queue drains (§III constraint); observing a taken lock
    therefore writes the value back unchanged before backing off.
    """

    def __init__(self, lock_addr: int, backoff=PAPER_LOCK_BACKOFF,
                 full_backoff=QUEUE_FULL_BACKOFF) -> None:
        self.lock_addr = lock_addr
        self.backoff = backoff
        self.full_backoff = full_backoff

    @classmethod
    def create(cls, machine, backoff=PAPER_LOCK_BACKOFF) -> "ColibriSpinLock":
        """Allocate the lock word and return the lock."""
        return cls(machine.allocator.alloc_interleaved(1), backoff)

    def acquire(self, api: CoreApi):
        """LRwait the word; SCwait 1 when free, else write back and retry."""
        attempt = 0
        while True:
            resp = yield MemCmd(LRWAIT, self.lock_addr)
            if resp.status is QUEUE_FULL:
                yield Compute(self.full_backoff.delay(api.rng, attempt))
                attempt += 1
                continue
            if resp.value == UNLOCKED:
                resp = yield MemCmd(SCWAIT, self.lock_addr, LOCKED)
                if resp.status is OK:
                    return
            else:
                # Mandatory queue-yielding SCwait (unchanged value).
                yield MemCmd(SCWAIT, self.lock_addr, resp.value)
                yield Compute(self.backoff.delay(api.rng, attempt))
            attempt += 1

    def release(self, api: CoreApi):
        """Store UNLOCKED."""
        yield MemCmd(SW, self.lock_addr, UNLOCKED)


class MwaitMcsLock:
    """MCS queue lock with Mwait-sleeping waiters (the "Mwait lock").

    Each core owns a two-word node in a bank of its own tile:
    ``next`` (successor's node address, 0 = none) and ``flag``
    (0 = wait, 1 = lock passed to you).  The global ``tail`` word holds
    the node address of the last waiter (0 = free).

    * acquire: swap own node into ``tail``; if there was a predecessor,
      link behind it and **Mwait on the own flag** — the core sleeps in
      its tile until the releaser's store wakes it (no polling, and the
      wait traffic never leaves the tile).
    * release: if no successor is linked, try to swing ``tail`` back to
      0 with an LRwait/SCwait CAS; if a racing enqueuer already moved
      the tail, wait for the ``next`` link and hand over via its flag.

    On hardware whose Mwait queue can reject (``QUEUE_FULL``), waiting
    falls back to polling the flag with backoff — the software contract
    for bounded wait queues.
    """

    #: Encoded "no node" value in tail/next words.
    NIL = 0

    def __init__(self, tail_addr: int, node_addrs: list,
                 flag_stride: int,
                 fallback_backoff=FixedBackoff(32)) -> None:
        self.tail_addr = tail_addr
        #: Per-core node base address (word 0 = next, word +stride = flag).
        self.node_addrs = node_addrs
        self.flag_stride = flag_stride
        self.fallback_backoff = fallback_backoff
        if any(addr == self.NIL for addr in node_addrs):
            raise ValueError("node at address 0 clashes with NIL encoding")

    @classmethod
    def create(cls, machine) -> "MwaitMcsLock":
        """Allocate tail word + one tile-local node per core."""
        tail = machine.allocator.alloc_interleaved(1)
        stride = machine.config.num_banks * machine.config.word_bytes
        nodes = [machine.allocator.alloc_core_local(core_id, 2)
                 for core_id in range(machine.config.num_cores)]
        return cls(tail, nodes, stride)

    def _node(self, api: CoreApi) -> tuple:
        node = self.node_addrs[api.core_id]
        return node, node + self.flag_stride

    def acquire(self, api: CoreApi):
        """Enqueue own node; sleep on the flag if there is a predecessor."""
        next_addr, flag_addr = self._node(api)
        yield MemCmd(SW, next_addr, self.NIL)
        yield MemCmd(SW, flag_addr, 0)
        resp = yield MemCmd(AMO_SWAP, self.tail_addr, next_addr)
        predecessor = resp.value
        if predecessor == self.NIL:
            return  # lock was free
        # Link behind the predecessor, then sleep until woken.
        yield MemCmd(SW, predecessor, next_addr)
        yield from self._wait_flag(api, flag_addr)

    def _wait_flag(self, api: CoreApi, flag_addr: int):
        """Mwait on the own flag, falling back to polling on QUEUE_FULL."""
        monitor = MemCmd(MWAIT, flag_addr, expected=0)
        attempt = 0
        while True:
            resp = yield monitor
            if resp.status is not QUEUE_FULL:
                if resp.value != 0:
                    return
                continue  # spurious: value unchanged, monitor again
            # Bounded hardware rejected the monitor: poll politely.
            resp = yield MemCmd(LW, flag_addr)
            if resp.value != 0:
                return
            yield Compute(self.fallback_backoff.delay(api.rng, attempt))
            attempt += 1

    def release(self, api: CoreApi):
        """Hand the lock to the successor, or swing the tail back to NIL."""
        next_addr, _flag_addr = self._node(api)
        resp = yield MemCmd(LW, next_addr)
        successor = resp.value
        if successor == self.NIL:
            # Appear to be last: CAS(tail, own node, NIL) via LRSCwait.
            swung = yield from self._try_swing_tail(api)
            if swung:
                return
            # A racing enqueuer took the tail; wait for its link.
            successor = yield from self._await_successor(api, next_addr)
        yield MemCmd(SW, successor + self.flag_stride, 1)

    def _try_swing_tail(self, api: CoreApi):
        """CAS tail from own node to NIL; returns True on success."""
        own = self.node_addrs[api.core_id]
        attempt = 0
        while True:
            resp = yield MemCmd(LRWAIT, self.tail_addr)
            if resp.status is QUEUE_FULL:
                yield Compute(self.fallback_backoff.delay(api.rng, attempt))
                attempt += 1
                continue
            if resp.value == own:
                resp = yield MemCmd(SCWAIT, self.tail_addr, self.NIL)
                if resp.status is OK:
                    return True
                continue
            # Tail moved on: write back unchanged to drain the queue.
            yield MemCmd(SCWAIT, self.tail_addr, resp.value)
            return False

    def _await_successor(self, api: CoreApi, next_addr: int):
        """Sleep (Mwait) until the successor links itself behind us."""
        monitor = MemCmd(MWAIT, next_addr, expected=self.NIL)
        attempt = 0
        while True:
            resp = yield monitor
            if resp.status is QUEUE_FULL:
                resp = yield MemCmd(LW, next_addr)
                if resp.value != self.NIL:
                    return resp.value
                yield Compute(self.fallback_backoff.delay(api.rng, attempt))
                attempt += 1
                continue
            if resp.value != self.NIL:
                return resp.value


class TicketLock:
    """Fetch-and-add ticket lock (FIFO-fair spin lock).

    Not part of the paper's Fig. 4 roster; used by the ablation benches
    as a fair polling baseline against the Mwait MCS lock.
    """

    def __init__(self, ticket_addr: int, serving_addr: int,
                 backoff=FixedBackoff(16)) -> None:
        self.ticket_addr = ticket_addr
        self.serving_addr = serving_addr
        self.backoff = backoff

    @classmethod
    def create(cls, machine) -> "TicketLock":
        """Allocate the ticket/serving counter pair."""
        return cls(machine.allocator.alloc_interleaved(1),
                   machine.allocator.alloc_interleaved(1))

    def acquire(self, api: CoreApi):
        """Take a ticket, poll now-serving until it matches."""
        resp = yield MemCmd(AMO_ADD, self.ticket_addr, 1)
        ticket = resp.value
        poll = MemCmd(LW, self.serving_addr)
        attempt = 0
        while True:
            resp = yield poll
            if resp.value == ticket:
                return
            yield Compute(self.backoff.delay(api.rng, attempt))
            attempt += 1

    def release(self, api: CoreApi):
        """Advance now-serving (only the holder writes it)."""
        resp = yield MemCmd(LW, self.serving_addr)
        yield MemCmd(SW, self.serving_addr, resp.value + 1)
