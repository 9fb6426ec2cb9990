"""Concurrent histogram (the workload of Figs. 3 and 4).

Every core performs ``updates_per_core`` atomic increments on a shared
array of ``num_bins`` bins, choosing a uniformly random bin per update.
Contention is set by the bin count: one bin means all cores serialize
on one word/bank; 1024 bins on the full system means nearly private
bins.  Bins are allocated row-aligned so bin *i* lives in bank
``i % num_banks`` — one bin per bank, like the paper's setup.

The update itself is expressed through every mechanism the paper
compares:

* ``"amo"`` — a single ``amoadd`` (Fig. 3/4 roofline);
* ``"lrsc"`` — LR/SC retry loop;
* ``"wait"`` — LRwait/SCwait (LRSCwait_q or Colibri, per the machine's
  variant);
* a lock class — acquire the bin's lock, plain load/add/store, release
  (Fig. 4's lock-based contenders).

Each lock-free method's kernel is its loop in :mod:`repro.sync.rmw` —
the one RMW implementation — over a stream of bin indices, a single
generator per core, chosen by :func:`repro.sync.rmw.add_loop`.  Only
the bin indices differ: uniform draws for Figs. 3/4, Table II and campaigns
(:meth:`Histogram.kernel_factory`), precomputed per-core streams for
the Zipf workload (:meth:`Histogram.stream_factory`) and an endless
uniform stream for Fig. 5's pollers
(:func:`repro.workloads.interference.endless_histogram_kernel`).

``verify`` checks the *atomicity invariant*: the bins must sum to the
exact number of retired updates, whatever the interleaving.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import Optional

from ..cores.api import RETIRE, CoreApi, MemCmd
from ..interconnect.messages import LW, SW
from ..machine import Machine
from ..sync.locks import MwaitMcsLock
from ..sync.rmw import COMPUTE_1, RMW_METHODS, add_loop


class Histogram:
    """A shared bin array plus kernels that update it."""

    def __init__(self, machine: Machine, num_bins: int) -> None:
        self.machine = machine
        self.num_bins = num_bins
        self.base = machine.allocator.alloc_row_aligned(num_bins)
        self.word = machine.config.word_bytes
        self._locks: Optional[list] = None

    def bin_addr(self, index: int) -> int:
        """Byte address of one bin."""
        return self.base + index * self.word

    # -- lock setup (Fig. 4) ---------------------------------------------------

    def attach_locks(self, lock_cls, **kwargs) -> None:
        """Create one lock per bin (``lock_cls.create``-style classes)."""
        if lock_cls is MwaitMcsLock:
            self._locks = create_shared_mcs_locks(self.machine, self.num_bins)
        else:
            self._locks = [lock_cls.create(self.machine, **kwargs)
                           for _ in range(self.num_bins)]

    # -- kernels ---------------------------------------------------------------------

    def update_kernel(self, api: CoreApi, indices, method: str,
                      **kwargs):
        """Fetch-and-add 1 to bin ``index`` for each of ``indices``, in
        order, through the RMW ``method``, retiring after each update.

        Returns the method's loop (:func:`~repro.sync.rmw.add_loop`)
        over the whole stream — one generator per kernel.  ``kwargs``
        go to the lrsc/wait loop and are ignored by ``"amo"``.
        """
        loop, operand = add_loop(method, 1, **kwargs)
        return loop(api, self.base, self.word, indices, operand)

    def lock_kernel(self, api: CoreApi, updates: int):
        """Updates through the per-bin locks set by :meth:`attach_locks`."""
        if self._locks is None:
            raise ValueError("attach_locks() must be called first")
        for _ in range(updates):
            index = api.rng.randrange(self.num_bins)
            lock = self._locks[index]
            addr = self.bin_addr(index)
            yield from lock.acquire(api)
            resp = yield MemCmd(LW, addr)
            yield COMPUTE_1
            yield MemCmd(SW, addr, resp.value + 1)
            yield from lock.release(api)
            yield RETIRE

    def kernel_factory(self, method: str, updates: int):
        """Kernel factory for :meth:`Machine.load_all`: ``updates``
        uniform-random bin updates per core.

        ``method`` is an RMW name or ``"lock"`` (after attach_locks).
        """
        if method == "lock":
            return lambda api: self.lock_kernel(api, updates)
        if method not in RMW_METHODS:
            raise ValueError(f"unknown histogram method {method!r}")
        # The loop is chosen once per factory: a call per core would
        # add to every machine's set-up (256 kernels at 256 cores).
        loop, operand = add_loop(method, 1)
        base, word, num_bins = self.base, self.word, self.num_bins
        return lambda api: loop(
            api, base, word, uniform_indices(api.rng, num_bins, updates),
            operand)

    def stream_factory(self, streams, method: str):
        """Kernel factory over per-core precomputed bin-index streams.

        ``streams[core_id]`` is the sequence of bin indices that core
        updates, in order (e.g. Zipf draws from a host RNG).
        """
        if method not in RMW_METHODS:
            raise ValueError(f"unknown histogram RMW method {method!r}")
        loop, operand = add_loop(method, 1)
        base, word = self.base, self.word
        return lambda api: loop(api, base, word, streams[api.core_id],
                                operand)

    # -- verification -------------------------------------------------------------------

    def counts(self) -> list:
        """Current bin values (simulation must be stopped)."""
        return self.machine.peek_array(self.base, self.num_bins)

    def verify(self, expected_total: int) -> None:
        """Assert the atomicity invariant: no update was ever lost."""
        total = sum(self.counts())
        if total != expected_total:
            raise AssertionError(
                f"histogram lost updates: {total} != {expected_total}")


def uniform_indices(rng, num_bins: int, count: Optional[int] = None):
    """Lazy uniform bin indices, endless when ``count`` is None.

    Each index is drawn only when the update loop pulls it, so the bin
    draws interleave with the retry loops' backoff draws on the same
    per-core RNG in program order.
    """
    draws = iter(partial(rng.randrange, num_bins), None)
    return draws if count is None else islice(draws, count)


def create_shared_mcs_locks(machine: Machine, count: int) -> list:
    """Build ``count`` MCS locks sharing one per-core node table.

    A core waits on at most one lock at a time, and an MCS node is
    never read again once its owner's ``release`` returns, so one node
    per core serves any number of locks — this keeps 1024 bin locks
    from needing 1024 × n_cores nodes.
    """
    stride = machine.config.num_banks * machine.config.word_bytes
    nodes = [machine.allocator.alloc_core_local(core_id, 2)
             for core_id in range(machine.config.num_cores)]
    locks = []
    for _ in range(count):
        tail = machine.allocator.alloc_interleaved(1)
        locks.append(MwaitMcsLock(tail, nodes, stride))
    return locks
