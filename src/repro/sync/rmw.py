"""Generic atomic read-modify-write sequences — the one RMW implementation.

These are the software idioms the paper benchmarks against each other
(§V-A, histogram): the same *fetch-and-modify* expressed through each
primitive.  Every kernel that updates a word atomically runs these
loops: the histogram (Figs. 3/4, Table II, campaigns), its Zipf
variant and Fig. 5's endless pollers, all through
:meth:`repro.algorithms.histogram.Histogram.update_kernel`.  All
helpers are generator functions used with ``yield from`` inside
kernels and return the **old** value:

* :func:`amo_fetch_add` — one ``amoadd`` instruction (the roofline; only
  possible when the modification is an addition);
* :func:`lrsc_fetch_modify` — the classic LR/SC retry loop, with
  backoff after failed SCs;
* :func:`wait_fetch_modify` — the LRwait/SCwait sequence: no retry loop
  in the common case, the core sleeps until served.  On bounded
  hardware (small LRSCwait queues or exhausted Colibri address slots)
  the LRwait itself can bounce with ``QUEUE_FULL``, and the helper
  retries after a short randomized wait — this is the software contract
  §III-B describes.

The loops yield the core's commands themselves rather than going
through the :class:`~repro.cores.api.CoreApi` helpers, so each command
climbs only the kernel's frame and the loop's own; the commands, their
cycle counts and the ``api.rng`` draws are exactly those of the
helpers.  A command is reused across retries: the core only reads it.

``modify`` is a plain Python function ``old -> new`` standing for the
register computation between the load and the store; its cost in cycles
is modelled by ``compute_cycles``.
"""

from __future__ import annotations

from typing import Callable

from ..cores.api import Compute, CoreApi, MemCmd
from ..interconnect.messages import Op, Status
from .backoff import (
    DEFAULT_LRSC_BACKOFF,
    QUEUE_FULL_BACKOFF,
)

#: The default one-cycle modify step, shared by every update.
_COMPUTE_1 = Compute(1)


def amo_fetch_add(api: CoreApi, addr: int, value: int = 1):
    """Fetch-and-add through the single AMO instruction."""
    resp = yield MemCmd(Op.AMO_ADD, addr, value)
    return resp.value


def lrsc_fetch_modify(api: CoreApi, addr: int,
                      modify: Callable[[int], int],
                      compute_cycles: int = 1,
                      backoff=DEFAULT_LRSC_BACKOFF):
    """Generic RMW via LR/SC with retry-on-failure.

    Returns the old value once an SC finally succeeds.  Every failed SC
    costs a full round trip plus the backoff wait — the polling/retry
    traffic LRSCwait eliminates.
    """
    load = MemCmd(Op.LR, addr)
    think = _COMPUTE_1 if compute_cycles == 1 else Compute(compute_cycles)
    attempt = 0
    while True:
        resp = yield load
        old = resp.value
        if compute_cycles > 0:
            yield think
        resp = yield MemCmd(Op.SC, addr, modify(old))
        if resp.status is Status.OK:
            return old
        delay = backoff.delay(api.rng, attempt)
        if delay > 0:
            yield Compute(delay)
        attempt += 1


def wait_fetch_modify(api: CoreApi, addr: int,
                      modify: Callable[[int], int],
                      compute_cycles: int = 1,
                      full_backoff=QUEUE_FULL_BACKOFF):
    """Generic RMW via LRwait/SCwait.

    The LRwait response only arrives when this core is the queue head,
    so the subsequent SCwait succeeds unless an interfering plain store
    hit the address in between (rare by construction); then the whole
    sequence retries.  A ``QUEUE_FULL`` bounce retries after a short
    randomized wait.
    """
    load = MemCmd(Op.LRWAIT, addr)
    think = _COMPUTE_1 if compute_cycles == 1 else Compute(compute_cycles)
    attempt = 0
    while True:
        resp = yield load
        if resp.status is Status.QUEUE_FULL:
            delay = full_backoff.delay(api.rng, attempt)
            if delay > 0:
                yield Compute(delay)
            attempt += 1
            continue
        old = resp.value
        if compute_cycles > 0:
            yield think
        resp = yield MemCmd(Op.SCWAIT, addr, modify(old))
        if resp.status is Status.OK:
            return old
        attempt += 1


def fetch_add(api: CoreApi, addr: int, value: int, method: str,
              **kwargs):
    """Fetch-and-add through the primitive named by ``method``.

    ``method`` is one of ``"amo"``, ``"lrsc"``, ``"wait"`` — the same
    naming the evaluation harness uses for histogram variants.  Returns
    the chosen helper's generator (use with ``yield from``), so the
    method is dispatched once per update and adds no frame of its own;
    ``kwargs`` go to the lrsc/wait loop and are ignored by ``"amo"``.
    """
    if method == "amo":
        return amo_fetch_add(api, addr, value)
    if method == "lrsc":
        return lrsc_fetch_modify(api, addr, value.__add__, **kwargs)
    if method == "wait":
        return wait_fetch_modify(api, addr, value.__add__, **kwargs)
    raise ValueError(f"unknown RMW method {method!r}")
