"""Exception hierarchy for the reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch the whole family with one clause.  Protocol violations (e.g. a
core issuing a second outstanding LRwait, which the paper's §III-b
deadlock-freedom constraint forbids) raise dedicated subclasses so the
test suite can assert that the constraint checking works.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigError(ReproError, ValueError):
    """Invalid or inconsistent configuration: a
    :class:`~repro.arch.config.SystemConfig`, spec or workload parameter.
    A :class:`ValueError` too, so library callers that check argument
    values the standard way catch it."""


class SimulationError(ReproError):
    """The simulation reached an impossible or corrupt state."""


class DeadlockError(SimulationError):
    """The event queue drained while cores were still blocked.

    This is how the simulator surfaces real deadlocks: a core sleeping
    on an LRwait/Mwait whose wake-up can never arrive leaves the queue
    empty with unfinished kernels.
    """


class ProtocolViolation(SimulationError):
    """Software violated a constraint of the LRSCwait ISA extension.

    Examples: two outstanding LRwait operations from one core (§III-b),
    or an SCwait without a preceding LRwait.
    """


class MemoryError_(SimulationError):
    """Out-of-range or misaligned memory access on the simulated SPM."""


class KernelError(SimulationError):
    """A software kernel coroutine raised an exception while running."""
