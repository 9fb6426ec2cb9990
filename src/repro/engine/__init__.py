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
    "Simulator",
    "BankStats",
    "CoreStats",
    "NetworkStats",
    "SimStats",
]
