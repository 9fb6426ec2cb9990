"""Generic atomic read-modify-write sequences — the one RMW implementation.

These are the software idioms the paper benchmarks against each other
(§V-A, histogram): the same *fetch-and-modify* expressed through each
primitive.  Every kernel that updates a word atomically runs these
loops: the histogram (Figs. 3/4, Table II, campaigns), its Zipf
variant and Fig. 5's endless pollers, all built by
:class:`repro.algorithms.histogram.Histogram`.

Each primitive has one loop, a generator over a *stream* of updates:
it updates word ``base + index * word`` for each ``index`` it pulls
from ``indices``, in order, and yields ``retire`` after each update
when one is given.  A histogram kernel is therefore one generator:
the core resumes the loop's own frame for every command, with no
per-update generator and no ``yield from`` hop.  The loops are

* :func:`amo_add_loop` — one ``amoadd`` instruction per update (the
  roofline; only possible when the modification is an addition);
* :func:`lrsc_loop` — the classic LR/SC retry loop, with backoff after
  failed SCs;
* :func:`wait_loop` — the LRwait/SCwait sequence: no retry loop in the
  common case, the core sleeps until served.  On bounded hardware
  (small LRSCwait queues or exhausted Colibri address slots) the LRwait
  itself can bounce with ``QUEUE_FULL``, and the loop retries after a
  short randomized wait — this is the software contract §III-B
  describes.

:func:`add_loop` picks the loop and its operand for a method name; it
is the one method dispatch, used by :func:`fetch_add` and the
histogram kernels.

The single-word helpers :func:`amo_fetch_add`, :func:`lrsc_fetch_modify`,
:func:`wait_fetch_modify` and :func:`fetch_add` are the same loops over a
one-element stream with no retire; use them with ``yield from`` inside
kernels.  They return the **old** value.

The loops yield the core's commands themselves rather than going
through the :class:`~repro.cores.api.CoreApi` helpers; the commands,
their cycle counts and the ``api.rng`` draws are exactly those of the
helpers.  The next index is pulled only after the previous update
retired, so lazy index streams draw from ``api.rng`` in program order.
A command is reused across retries: the core only reads it.

``modify`` is a plain Python function ``old -> new`` standing for the
register computation between the load and the store; its cost in cycles
is modelled by ``compute_cycles``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Optional

from ..cores.api import RETIRE, Compute, CoreApi, MemCmd, Retire
from ..interconnect.messages import (
    AMO_ADD, LR, LRWAIT, OK, QUEUE_FULL, SC, SCWAIT)
from .backoff import (
    DEFAULT_LRSC_BACKOFF,
    QUEUE_FULL_BACKOFF,
)

#: The ``method`` names :func:`add_loop` accepts.
RMW_METHODS = ("amo", "lrsc", "wait")

#: The default one-cycle modify step, shared by every update (the loops
#: here and the histogram's lock kernel).
COMPUTE_1 = Compute(1)

#: The one-element index stream of the single-word helpers.
_ONE = (0,)


def amo_add_loop(api: CoreApi, base: int, word: int, indices: Iterable,
                 value: int = 1, retire: Optional[Retire] = RETIRE):
    """Fetch-and-add ``value`` through one AMO per update; returns the
    old value of the last update."""
    old = None
    for index in indices:
        resp = yield MemCmd(AMO_ADD, base + index * word, value)
        old = resp.value
        if retire is not None:
            yield retire
    return old


def lrsc_loop(api: CoreApi, base: int, word: int, indices: Iterable,
              modify: Callable[[int], int], compute_cycles: int = 1,
              backoff=DEFAULT_LRSC_BACKOFF,
              retire: Optional[Retire] = RETIRE):
    """Generic RMW via LR/SC with retry-on-failure, per update.

    An update ends when an SC finally succeeds; the loop returns the
    old value of the last update.  Every failed SC costs a full round
    trip plus the backoff wait — the polling/retry traffic LRSCwait
    eliminates.
    """
    think = COMPUTE_1 if compute_cycles == 1 else Compute(compute_cycles)
    old = None
    for index in indices:
        addr = base + index * word
        load = MemCmd(LR, addr)
        attempt = 0
        while True:
            resp = yield load
            old = resp.value
            if compute_cycles > 0:
                yield think
            resp = yield MemCmd(SC, addr, modify(old))
            if resp.status is OK:
                break
            delay = backoff.delay(api.rng, attempt)
            if delay > 0:
                yield Compute(delay)
            attempt += 1
        if retire is not None:
            yield retire
    return old


def wait_loop(api: CoreApi, base: int, word: int, indices: Iterable,
              modify: Callable[[int], int], compute_cycles: int = 1,
              full_backoff=QUEUE_FULL_BACKOFF,
              retire: Optional[Retire] = RETIRE):
    """Generic RMW via LRwait/SCwait, per update.

    The LRwait response only arrives when this core is the queue head,
    so the subsequent SCwait succeeds unless an interfering plain store
    hit the address in between (rare by construction); then the whole
    sequence retries.  A ``QUEUE_FULL`` bounce retries after a short
    randomized wait.  Returns the old value of the last update.
    """
    think = COMPUTE_1 if compute_cycles == 1 else Compute(compute_cycles)
    old = None
    for index in indices:
        addr = base + index * word
        load = MemCmd(LRWAIT, addr)
        attempt = 0
        while True:
            resp = yield load
            if resp.status is QUEUE_FULL:
                delay = full_backoff.delay(api.rng, attempt)
                if delay > 0:
                    yield Compute(delay)
                attempt += 1
                continue
            old = resp.value
            if compute_cycles > 0:
                yield think
            resp = yield MemCmd(SCWAIT, addr, modify(old))
            if resp.status is OK:
                break
            attempt += 1
        if retire is not None:
            yield retire
    return old


def amo_fetch_add(api: CoreApi, addr: int, value: int = 1):
    """Fetch-and-add through the single AMO instruction."""
    return amo_add_loop(api, addr, 0, _ONE, value, None)


def lrsc_fetch_modify(api: CoreApi, addr: int,
                      modify: Callable[[int], int],
                      compute_cycles: int = 1,
                      backoff=DEFAULT_LRSC_BACKOFF):
    """Generic RMW via LR/SC with retry-on-failure (:func:`lrsc_loop`
    on one word); returns the old value once an SC succeeds."""
    return lrsc_loop(api, addr, 0, _ONE, modify, compute_cycles, backoff,
                     None)


def wait_fetch_modify(api: CoreApi, addr: int,
                      modify: Callable[[int], int],
                      compute_cycles: int = 1,
                      full_backoff=QUEUE_FULL_BACKOFF):
    """Generic RMW via LRwait/SCwait (:func:`wait_loop` on one word);
    returns the old value."""
    return wait_loop(api, addr, 0, _ONE, modify, compute_cycles,
                     full_backoff, None)


def add_loop(method: str, value: int, **options):
    """The loop that fetch-and-adds ``value`` through the primitive
    named by ``method``: ``(loop, operand)``, called as ``loop(api,
    base, word, indices, operand)`` (plus ``retire=``).

    This is the one method dispatch, shared by :func:`fetch_add` and
    the histogram kernels.  ``method`` is one of :data:`RMW_METHODS` —
    the same naming the evaluation harness uses for histogram variants;
    ``options`` are bound to the lrsc/wait loop and ignored by
    ``"amo"``.
    """
    if method == "amo":
        return amo_add_loop, value
    if method == "lrsc":
        loop = lrsc_loop
    elif method == "wait":
        loop = wait_loop
    else:
        raise ValueError(f"unknown RMW method {method!r}")
    return (partial(loop, **options) if options else loop), value.__add__


def fetch_add(api: CoreApi, addr: int, value: int, method: str,
              **kwargs):
    """Fetch-and-add through the primitive named by ``method``
    (:func:`add_loop` on one word, use with ``yield from``); returns
    the old value."""
    loop, operand = add_loop(method, value, **kwargs)
    return loop(api, addr, 0, _ONE, operand, retire=None)
