"""Concurrent linked queue (the workload of Fig. 6).

"Concurrent queues are widely used for task scheduling or
producer/consumer pipelines" (§V-C).  The paper implements an MCS-style
linked queue with LRSC and with LRSCwait, plus a lock-based queue using
atomic adds; this module provides all three over the same node layout:

* nodes are two SPM words — ``next`` (0 terminates) and ``value``;
* ``tail`` holds the address of the last node, ``head`` the address of
  a *sentinel* whose ``next`` is the first real element (Michael &
  Scott layout, which makes enqueue and dequeue contend on different
  words);
* **enqueue** swaps the tail to the new node with a generic RMW, then
  links ``old_tail.next = node`` — the MCS enqueue;
* **dequeue** advances ``head`` to ``head.next`` with a generic RMW and
  reads the value from the new sentinel.

Nodes come from per-core arenas and are never recycled during a run,
which sidesteps ABA/reclamation entirely (a deliberate benchmark
simplification — the paper's runs are similarly bounded).

The ``method`` parameter selects the primitive: ``"lrsc"`` retries on
failed SCs with backoff; ``"wait"`` uses LRwait/SCwait and *must* close
every LRwait with an SCwait even when it observed an empty queue
(§III's pairing constraint); ``"lock"`` takes a test-and-set AMO lock
around plain accesses.

The queue's methods yield the core's commands themselves (see
:mod:`repro.sync.rmw`), so each command resumes the kernel's own
frames with no :class:`~repro.cores.api.CoreApi` helper in between.
"""

from __future__ import annotations

from ..cores.api import RETIRE, Compute, CoreApi, MemCmd
from ..engine.errors import MemoryError_
from ..interconnect.messages import (
    LR, LRWAIT, LW, OK, QUEUE_FULL, SC, SCWAIT, SW)
from ..machine import Machine
from ..sync.backoff import DEFAULT_LRSC_BACKOFF, QUEUE_FULL_BACKOFF
from ..sync.locks import AmoSpinLock

#: Queue methods accepted by :class:`ConcurrentQueue`.
QUEUE_METHODS = ("lrsc", "wait", "lock")

#: Node field offsets in words.
NEXT, VALUE = 0, 1


class NodeArena:
    """Per-core bump arena of queue nodes (software-managed)."""

    def __init__(self, machine: Machine, core_id: int, capacity: int) -> None:
        self.word = machine.config.word_bytes
        self.capacity = capacity
        self.used = 0
        #: Nodes are interleaved-allocated: two consecutive words.
        self._bases = [machine.allocator.alloc_interleaved(2)
                       for _ in range(capacity)]

    def take(self) -> int:
        """Hand out the next never-used node's base address."""
        if self.used >= self.capacity:
            raise MemoryError_("node arena exhausted; size the workload "
                               "to ops_per_core <= arena capacity")
        base = self._bases[self.used]
        self.used += 1
        return base


class ConcurrentQueue:
    """A shared linked queue with pluggable synchronization."""

    def __init__(self, machine: Machine, method: str,
                 nodes_per_core: int) -> None:
        if method not in QUEUE_METHODS:
            raise ValueError(f"unknown queue method {method!r}")
        self.machine = machine
        self.method = method
        self.word = machine.config.word_bytes
        # head and tail land in different banks (row-aligned pair).
        base = machine.allocator.alloc_row_aligned(2)
        self.head_addr = base
        self.tail_addr = base + self.word
        # The initial sentinel.
        sentinel = machine.allocator.alloc_interleaved(2)
        machine.poke(sentinel + NEXT * self.word, 0)
        machine.poke(self.head_addr, sentinel)
        machine.poke(self.tail_addr, sentinel)
        self.arenas = [NodeArena(machine, core_id, nodes_per_core)
                       for core_id in range(machine.config.num_cores)]
        self.lock = (AmoSpinLock.create(machine)
                     if method == "lock" else None)

    # -- field helpers ----------------------------------------------------------

    def _next_addr(self, node: int) -> int:
        return node + NEXT * self.word

    def _value_addr(self, node: int) -> int:
        return node + VALUE * self.word

    # -- enqueue -------------------------------------------------------------------

    def enqueue(self, api: CoreApi, value: int):
        """Append ``value``; returns the node address used."""
        node = self.arenas[api.core_id].take()
        yield MemCmd(SW, self._next_addr(node), 0)
        yield MemCmd(SW, self._value_addr(node), value)
        if self.method == "lock":
            yield from self._enqueue_locked(api, node)
        else:
            old_tail = yield from self._swap_tail(api, node)
            yield MemCmd(SW, self._next_addr(old_tail), node)
        return node

    def _enqueue_locked(self, api: CoreApi, node: int):
        assert self.lock is not None
        yield from self.lock.acquire(api)
        resp = yield MemCmd(LW, self.tail_addr)
        yield MemCmd(SW, self._next_addr(resp.value), node)
        yield MemCmd(SW, self.tail_addr, node)
        yield from self.lock.release(api)

    def _swap_tail(self, api: CoreApi, node: int):
        """Atomic swap of the tail pointer via the selected primitive."""
        if self.method == "lrsc":
            attempt = 0
            while True:
                resp = yield MemCmd(LR, self.tail_addr)
                old = resp.value
                resp = yield MemCmd(SC, self.tail_addr, node)
                if resp.status is OK:
                    return old
                yield Compute(DEFAULT_LRSC_BACKOFF.delay(api.rng, attempt))
                attempt += 1
        attempt = 0
        while True:  # "wait"
            resp = yield MemCmd(LRWAIT, self.tail_addr)
            if resp.status is QUEUE_FULL:
                yield Compute(QUEUE_FULL_BACKOFF.delay(api.rng, attempt))
                attempt += 1
                continue
            old = resp.value
            resp = yield MemCmd(SCWAIT, self.tail_addr, node)
            if resp.status is OK:
                return old
            attempt += 1

    # -- dequeue ----------------------------------------------------------------------

    def dequeue(self, api: CoreApi):
        """Remove the oldest element; returns ``(ok, value)``.

        ``ok`` is ``False`` when the queue was (transiently) empty.
        Returns the method's generator; use with ``yield from``.
        """
        if self.method == "lock":
            return self._dequeue_locked(api)
        if self.method == "lrsc":
            return self._dequeue_lrsc(api)
        return self._dequeue_wait(api)

    def _dequeue_locked(self, api: CoreApi):
        assert self.lock is not None
        yield from self.lock.acquire(api)
        resp = yield MemCmd(LW, self.head_addr)
        resp = yield MemCmd(LW, self._next_addr(resp.value))
        first = resp.value
        if first == 0:
            yield from self.lock.release(api)
            return (False, 0)
        yield MemCmd(SW, self.head_addr, first)
        yield from self.lock.release(api)
        resp = yield MemCmd(LW, self._value_addr(first))
        return (True, resp.value)

    def _dequeue_lrsc(self, api: CoreApi):
        attempt = 0
        while True:
            resp = yield MemCmd(LR, self.head_addr)
            resp = yield MemCmd(LW, self._next_addr(resp.value))
            first = resp.value
            if first == 0:
                # Plain LR may be abandoned without an SC.
                return (False, 0)
            resp = yield MemCmd(SC, self.head_addr, first)
            if resp.status is OK:
                resp = yield MemCmd(LW, self._value_addr(first))
                return (True, resp.value)
            yield Compute(DEFAULT_LRSC_BACKOFF.delay(api.rng, attempt))
            attempt += 1

    def _dequeue_wait(self, api: CoreApi):
        attempt = 0
        while True:
            resp = yield MemCmd(LRWAIT, self.head_addr)
            if resp.status is QUEUE_FULL:
                yield Compute(QUEUE_FULL_BACKOFF.delay(api.rng, attempt))
                attempt += 1
                continue
            sentinel = resp.value
            resp = yield MemCmd(LW, self._next_addr(sentinel))
            first = resp.value
            if first == 0:
                # LRwait must always be closed: write back unchanged.
                yield MemCmd(SCWAIT, self.head_addr, sentinel)
                return (False, 0)
            resp = yield MemCmd(SCWAIT, self.head_addr, first)
            if resp.status is OK:
                resp = yield MemCmd(LW, self._value_addr(first))
                return (True, resp.value)
            attempt += 1

    # -- verification helpers -----------------------------------------------------------

    def drain_values(self) -> list:
        """Walk the list from the sentinel (post-run, host-side)."""
        values = []
        node = self.machine.peek(self.head_addr)
        while True:
            nxt = self.machine.peek(self._next_addr(node))
            if nxt == 0:
                return values
            values.append(self.machine.peek(self._value_addr(nxt)))
            node = nxt


def queue_worker_kernel(queue: ConcurrentQueue, api: CoreApi, ops: int,
                        think_cycles: int = 4):
    """Fig. 6 worker: alternate enqueue / dequeue, ``ops`` accesses.

    Each completed access (an enqueue, or a *successful* dequeue)
    retires one operation; empty dequeues retry after a short think.
    Values encode ``(core, sequence)`` so tests can check conservation.
    """
    think = Compute(think_cycles)
    sequence = 0
    for op_index in range(ops):
        if op_index % 2 == 0:
            value = api.core_id * 1_000_000 + sequence
            sequence += 1
            yield from queue.enqueue(api, value)
        else:
            while True:
                ok, _value = yield from queue.dequeue(api)
                if ok:
                    break
                yield think
        yield RETIRE
        yield think
