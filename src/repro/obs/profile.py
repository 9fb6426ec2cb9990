"""Opt-in per-phase cProfile accumulation.

``--profile OUT`` answers the question spans cannot: not
*which* phase is hot but *what inside it* burns the time.  One
:class:`cProfile.Profile` accumulates per phase name (``build``,
``run``, ``collect-stats``, ``acquire``...), re-enabled on every
occurrence of that phase, so a 500-point sweep folds all 500 ``run``
phases into one stats object.  :meth:`PhaseProfiler.dump` writes the
*hottest* phase (largest accumulated wall clock) as a standard pstats
file for ``python -m pstats`` / snakeviz.

Only one cProfile can be active per interpreter, hence the ``_active``
guard: a nested phase span (``acquire`` inside a ``point``) simply
skips profiling while an outer phase holds the profiler.  Profiling is
likewise confined to ``--jobs 1`` (the CLI enforces it) — a worker
process's profile would die with the worker.
"""

from __future__ import annotations

import cProfile
from typing import Optional


class PhaseProfiler:
    """Accumulating per-phase profiler; see the module docstring."""

    def __init__(self) -> None:
        self._profiles: dict = {}
        self._active: Optional[str] = None
        #: Accumulated wall-clock seconds per phase name.
        self.wall: dict = {}

    def start(self, name: str) -> bool:
        """Begin profiling phase ``name``; ``False`` when another phase
        already holds the (single) profiler."""
        if self._active is not None:
            return False
        profile = self._profiles.get(name)
        if profile is None:
            profile = self._profiles[name] = cProfile.Profile()
        self._active = name
        profile.enable()
        return True

    def stop(self, name: str, seconds: float) -> None:
        """End the phase begun by a successful :meth:`start`."""
        self._profiles[name].disable()
        self._active = None
        self.wall[name] = self.wall.get(name, 0.0) + seconds

    def hottest(self) -> Optional[str]:
        """The phase with the largest accumulated wall clock."""
        if not self.wall:
            return None
        return max(sorted(self.wall), key=lambda name: self.wall[name])

    def dump(self, path: str) -> Optional[str]:
        """Write the hottest phase's pstats to ``path``; returns the
        phase name, or ``None`` when nothing was profiled."""
        name = self.hottest()
        if name is None:
            return None
        self._profiles[name].dump_stats(path)
        return name
