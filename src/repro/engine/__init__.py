"""Discrete-event simulation kernel (clock, events, stats)."""

from .errors import (
    ConfigError,
    DeadlockError,
    KernelError,
    MemoryError_,
    ProtocolViolation,
    ReproError,
    SimulationError,
)
from .events import Event, EventQueue, PRIORITY_EARLY, PRIORITY_LATE, PRIORITY_NORMAL
from .simulator import Simulator
from .stats import BankStats, CoreStats, NetworkStats, SimStats

__all__ = [
    "ConfigError",
    "DeadlockError",
    "KernelError",
    "MemoryError_",
    "ProtocolViolation",
    "ReproError",
    "SimulationError",
    "Event",
    "EventQueue",
    "PRIORITY_EARLY",
    "PRIORITY_LATE",
    "PRIORITY_NORMAL",
    "Simulator",
    "BankStats",
    "CoreStats",
    "NetworkStats",
    "SimStats",
]
