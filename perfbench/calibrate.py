"""Host-speed calibration for timings taken on a shared machine.

On a host shared with other tenants the same work can take 1.5-2x
longer for seconds or minutes at a time; CPU time slows as much as
wall time, so no clock sees through it.  The benchmark therefore times
a fixed *calibration kernel* right before and right after every timed
sample, and every :data:`PROBE_EVERY_S` inside it, and rescales each
stretch of the sample by how fast the kernel ran at its two ends:

    calibrated = sum of stretch * NOMINAL_S / mean(kernel at its ends)

i.e. the sample's host seconds on a host where the kernel takes
:data:`NOMINAL_S`.  The kernel is this file's own code, shaped like the
simulator's hot path (a heap-driven event loop resuming generators
that read and write a 1 MiB list and a dict), so the neighbours' load
slows it about as much as it slows the simulator.  A change to the
simulator moves ``elapsed`` and not the kernel; a slow phase of the
host moves both.
"""

from __future__ import annotations

import heapq
import itertools
import signal
import time

#: Kernel time that calibrated seconds are expressed against.
NOMINAL_S = 0.010

#: Wall-clock interval of the kernel probes inside a timed call.
PROBE_EVERY_S = 0.2

_WORDS = 1 << 17


def calibration_kernel(cores: int = 256, steps: int = 12) -> int:
    """A fixed event loop; returns the number of finished coroutines."""
    memory = list(range(_WORDS))
    table: dict = {}
    heap: list = []
    counter = itertools.count()

    def core(ident: int):
        addr = ident * 97
        for _step in range(steps):
            addr = (addr * 1103515245 + 12345) % _WORDS
            value = memory[addr]
            table[addr & 4095] = (ident, value)
            memory[addr] = value + 1
            yield 1 + (value & 3)

    for ident in range(cores):
        heapq.heappush(heap, [0, next(counter), core(ident)])
    finished = 0
    while heap:
        entry = heapq.heappop(heap)
        try:
            delay = next(entry[2])
        except StopIteration:
            finished += 1
            continue
        heapq.heappush(heap, [entry[0] + delay, next(counter), entry[2]])
    return finished


def kernel_seconds() -> float:
    """Host seconds of one calibration-kernel run."""
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


class Clock:
    """Times calls and calibrates each against the kernel around it.

    The kernel runs before and after every sample, and also *inside*
    long samples: a wall-clock timer interrupts the call every
    :data:`PROBE_EVERY_S` to run it, so a sample that spans several of
    the host's slow and fast phases is calibrated piecewise.  Probe
    time is left out of the sample.  The kernel run after one sample
    doubles as the run before the next.
    """

    def __init__(self) -> None:
        self._before = None
        #: Every kernel time measured, for the report.
        self.kernel: list = []

    def time(self, call):
        """``(output, raw seconds, calibrated seconds)`` of ``call()``.

        The call is cut at each probe into segments; a segment's
        calibrated time is its host seconds scaled by the mean of the
        kernel runs at its two ends."""
        if self._before is None:
            self._before = self._kernel()
        clock = time.perf_counter
        # (segment end, kernel run there, next segment's start)
        cuts: list = []
        armed = [True]

        def probe(_signum, _frame):
            # A signal raised just before the timer was stopped can be
            # handled just after: it must not re-arm the timer.
            if not armed[0]:
                return
            stopped = clock()
            kernel = self._kernel()
            cuts.append((stopped, kernel, clock()))
            # Re-armed only now, so probes never nest.
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        try:
            start = clock()
            output = call()
            end = clock()
        finally:
            armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = self._kernel()
        elapsed = calibrated = 0.0
        kernel_before = self._before
        for stopped, kernel, resumed in cuts:
            if stopped >= end:           # fired after the call returned
                break
            elapsed += stopped - start
            calibrated += (stopped - start) * 2.0 * NOMINAL_S \
                / (kernel_before + kernel)
            start, kernel_before = resumed, kernel
        elapsed += end - start
        calibrated += (end - start) * 2.0 * NOMINAL_S / (kernel_before + after)
        self._before = after
        return output, elapsed, calibrated

    def forget(self) -> None:
        """Drop the shared kernel time (after untimed work long enough
        for the host's speed to change)."""
        self._before = None

    def _kernel(self) -> float:
        seconds = kernel_seconds()
        self.kernel.append(seconds)
        return seconds
