"""Vectorized (flat) drivers for identical-program workloads.

The scalar kernels express one update as a stack of nested generators:
``kernel → fetch_add → lrsc_fetch_modify → api.lr`` is four live Python
frames, and every yielded command climbs the whole stack twice (down via
``send``, up via ``yield from``).  For the workloads where all cores run
the same program — histogram, histogram_zipf, matmul — that stack is
pure overhead: the command sequence is known up front, modulo the
data-dependent retry loops and RNG draws.

The drivers here collapse each per-core program into **one flat
generator** stepping through precomputed command arrays where the
sequence is static (AMO address streams, matmul load commands) and
inlining the retry state machines where it is not.  They are drop-in
kernel bodies behind the existing :class:`Workload` API and
**bit-identical to the scalar path** by construction:

* every command is yielded in exactly the scalar order with exactly the
  scalar cycle counts;
* RNG draws happen in the scalar sequence on the same per-core
  ``api.rng`` — in particular the LR/SC and QUEUE_FULL backoff draws
  *interleave* with the histogram's uniform bin draws, so those bin
  indices are drawn inline, never precomputed (the Zipf streams come
  from a separate host RNG and can be fully precomputed);
* shared command singletons (``Retire(1)``, ``Compute(1)``...) are safe
  because the core FSM only reads command fields.

``tests/scenarios/test_batch.py`` goldens each driver against the
scalar kernel it replaces, per RMW method.
"""

from __future__ import annotations

from ..cores.api import Compute, MemCmd, Retire
from ..interconnect.messages import Op, Status
from ..sync.backoff import DEFAULT_LRSC_BACKOFF, QUEUE_FULL_BACKOFF

#: Immutable-in-practice command singletons (the core reads, never writes).
RETIRE = Retire(1)
COMPUTE_1 = Compute(1)
COMPUTE_2 = Compute(2)

#: Methods the flat RMW drivers implement (``"lock"`` stays scalar).
FLAT_RMW_METHODS = ("amo", "lrsc", "wait")


def _amo_stream(addrs):
    """Array-stepping driver: the full command list exists before the
    first yield, so the simulated run is a bare ``for`` over it."""
    cmds = []
    append = cmds.append
    for addr in addrs:
        append(MemCmd(Op.AMO_ADD, addr, 1))
        append(RETIRE)
    for cmd in cmds:
        yield cmd


def _lrsc_stream(api, addrs):
    """Flat LR/SC retry loop over an address stream (a list, or a lazy
    generator drawing each address when the loop pulls it).

    Mirrors :func:`repro.sync.rmw.lrsc_fetch_modify` exactly: LR,
    one compute cycle, SC of old+1; on failure a backoff draw from
    ``api.rng`` and a compute of that many cycles.
    """
    rng = api.rng
    backoff = DEFAULT_LRSC_BACKOFF
    ok = Status.OK
    for addr in addrs:
        attempt = 0
        while True:
            resp = yield MemCmd(Op.LR, addr)
            yield COMPUTE_1
            resp = yield MemCmd(Op.SC, addr, resp.value + 1)
            if resp.status is ok:
                break
            delay = backoff.delay(rng, attempt)
            if delay > 0:
                yield Compute(delay)
            attempt += 1
        yield RETIRE


def _wait_stream(api, addrs):
    """Flat LRwait/SCwait loop over an address stream (list or lazy).

    Mirrors :func:`repro.sync.rmw.wait_fetch_modify` exactly, including
    the QUEUE_FULL retry with its randomized short wait.
    """
    rng = api.rng
    backoff = QUEUE_FULL_BACKOFF
    ok = Status.OK
    queue_full = Status.QUEUE_FULL
    for addr in addrs:
        attempt = 0
        while True:
            resp = yield MemCmd(Op.LRWAIT, addr)
            if resp.status is queue_full:
                delay = backoff.delay(rng, attempt)
                if delay > 0:
                    yield Compute(delay)
                attempt += 1
                continue
            old = resp.value
            yield COMPUTE_1
            resp = yield MemCmd(Op.SCWAIT, addr, old + 1)
            if resp.status is ok:
                break
            attempt += 1
        yield RETIRE


def flat_stream_rmw(api, addrs, method: str):
    """Fetch-add each address of ``addrs`` (in order) via ``method``.

    ``addrs`` is a list known up front (Zipf draws from a host RNG, or
    AMO uniform draws — AMO never touches ``api.rng`` mid-run, so its
    bin indices may be drawn before the run without reordering
    anything), or for lrsc/wait the lazy generator of
    :func:`flat_uniform_rmw`.
    """
    if method == "amo":
        return _amo_stream(addrs)
    if method == "lrsc":
        return _lrsc_stream(api, addrs)
    if method == "wait":
        return _wait_stream(api, addrs)
    raise ValueError(f"no flat driver for RMW method {method!r}")


def flat_uniform_rmw(api, base: int, word: int, num_bins: int,
                     updates: int, method: str):
    """Uniform-random histogram updates, bin indices drawn inline.

    The scalar kernel draws one bin index from ``api.rng`` per update
    *between* the retry loops' backoff draws; the lrsc/wait flavours
    therefore get a lazy address generator, so each bin is drawn only
    when the retry loop pulls its next address — the scalar RNG order.
    Only AMO (no mid-run RNG use) may batch its draws up front.
    """
    randrange = api.rng.randrange
    addrs = (base + randrange(num_bins) * word for _ in range(updates))
    if method == "amo":
        addrs = list(addrs)
    return flat_stream_rmw(api, addrs, method)


def flat_matmul_kernel(api, matmul, rows):
    """Flat GEMM worker: prebuilt load commands, runtime accumulation.

    The A-row and B-column load commands are built once per kernel and
    *reused* across iterations (the core only reads command fields);
    the store value is data-dependent, so SW commands are built inline.
    Command order and cycle costs match
    :meth:`repro.algorithms.matmul.Matmul.worker_kernel` exactly.
    """
    dim = matmul.dim
    word = matmul.word
    a_base, b_base, c_base = matmul.a_base, matmul.b_base, matmul.c_base
    lw = Op.LW
    b_cmds = [[MemCmd(lw, b_base + (k * dim + col) * word)
               for k in range(dim)]
              for col in range(dim)]
    for row in rows:
        a_cmds = [MemCmd(lw, a_base + (row * dim + k) * word)
                  for k in range(dim)]
        for col in range(dim):
            col_cmds = b_cmds[col]
            acc = 0
            for k in range(dim):
                resp_a = yield a_cmds[k]
                resp_b = yield col_cmds[k]
                yield COMPUTE_2  # mul + add
                acc += resp_a.value * resp_b.value
            yield MemCmd(Op.SW, c_base + (row * dim + col) * word, acc)
            yield RETIRE
