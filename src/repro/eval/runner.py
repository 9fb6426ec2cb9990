"""The on-disk result cache and the ``--jobs`` helpers.

Every figure and table of the paper is a sweep over independent,
deterministic simulator points, so every point is perfectly cacheable.
:class:`ResultCache` memoizes finished points on disk, keyed by a hash
the caller computes (the scenario layer uses
:func:`~repro.scenarios.run.scenario_cache_key`) folded with a
fingerprint of the ``repro`` sources (:func:`source_fingerprint`).
Re-running a figure after editing one variant only re-simulates the
points whose configuration actually changed; the rest come back as
cache hits.

Points run through :func:`~repro.scenarios.run.run_scenarios`, the one
path that looks them up, shards the misses across a worker pool and
stores the results; :func:`resolve_jobs` and :func:`jobs_argument`
define its ``--jobs`` contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import Optional

from ..obs import OBS

#: Sidecar file (inside the cache directory) accumulating lifetime
#: hit/miss/store/evict totals across processes; see
#: :meth:`ResultCache.flush_counters`.
COUNTERS_NAME = "counters.json"

#: Version stamp of the sidecar layout.
COUNTERS_VERSION = 1

_COUNTER_KEYS = ("hits", "misses", "stores", "evictions", "write_errors")

def source_fingerprint() -> str:
    """Hash of every ``repro`` source file (content, not mtime).

    Folded into cache keys so editing *simulator code* — not just a
    point's configuration — invalidates cached results.  Serving
    pre-edit numbers as current would be silently-wrong science in a
    reproduction repo; a few milliseconds of hashing per cache
    construction buys safety by default.
    """
    import repro
    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            digest.update(name.encode("utf-8"))
            with open(os.path.join(dirpath, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


class ResultCache:
    """Disk-backed memo of finished experiment points.

    One pickle file per key, fronted by an in-process dict.  The key
    combines a caller-computed config hash with a fingerprint of the
    ``repro`` sources (see :func:`source_fingerprint`), so both config
    edits and code edits invalidate exactly what they touch.
    ``hits``/``misses``/``stores``/``write_errors`` are exposed for
    tests and for ``--jobs`` progress reporting.

    ``max_entries`` bounds the on-disk entry count with LRU-style
    pruning: every hit refreshes its file's timestamps, and a store
    that pushes the directory past the limit evicts the
    least-recently-used entries — to ~5% below the bound, so the
    directory scan amortizes over many stores — which automatically
    clears stale-fingerprint leftovers first (they stopped being
    touched when the sources changed).  Unbounded by default; pass a
    bound (CLI: ``--cache-max-entries``) for cache-heavy search
    campaigns, and manage existing directories with
    ``repro cache prune|stats``.
    """

    def __init__(self, path: str, fingerprint: Optional[str] = None,
                 max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}")
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.fingerprint = (source_fingerprint() if fingerprint is None
                            else fingerprint)
        self.max_entries = max_entries
        #: Lazily-initialized on-disk entry estimate; every store
        #: counts as +1 (overwrites over-count, which only means an
        #: occasional early re-scan), so the auto-prune scan in
        #: :meth:`store_hash` runs only when the bound can actually be
        #: exceeded instead of on every store.
        self._disk_count: Optional[int] = None
        self._memory: dict = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.write_errors = 0
        self.evictions = 0
        #: Counter values already merged into the sidecar, so
        #: :meth:`flush_counters` writes deltas and stays idempotent.
        self._flushed = {key: 0 for key in _COUNTER_KEYS}

    def _key_for(self, config_hash: str) -> str:
        blob = f"{self.fingerprint}\x1f{config_hash}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _file(self, key: str) -> str:
        return os.path.join(self.path, key + ".pkl")

    def lookup_hash(self, config_hash: str, default=None):
        """Cached result under a caller-computed config hash.

        Returns ``default`` on a miss (callers pass a sentinel to
        permit cached ``None``\\ s).
        """
        key = self._key_for(config_hash)
        if key in self._memory:
            self.hits += 1
            if OBS.enabled:
                OBS.inc("cache.hit")
            self._touch(key)
            return self._memory[key]
        try:
            with open(self._file(key), "rb") as handle:
                result = pickle.load(handle)
        except Exception:
            # Unpickling can raise almost anything — a class whose
            # module or attribute is gone, a truncated or corrupt
            # stream — and none of it may abort a campaign: an entry
            # that cannot be loaded is a miss.  KeyboardInterrupt is
            # not an Exception, so Ctrl-C still propagates.
            self.misses += 1
            if OBS.enabled:
                OBS.inc("cache.miss")
            return default
        self._memory[key] = result
        self.hits += 1
        if OBS.enabled:
            OBS.inc("cache.hit")
        self._touch(key)
        return result

    def _touch(self, key: str) -> None:
        """Refresh an entry's LRU timestamp (best effort)."""
        try:
            os.utime(self._file(key))
        except OSError:
            pass

    def store_hash(self, config_hash: str, result) -> None:
        """Persist one finished point under a caller-computed hash.

        A failing disk write (full volume, revoked permissions...)
        degrades to cache-less operation instead of discarding the
        already-computed simulation results with an exception.
        """
        key = self._key_for(config_hash)
        self._memory[key] = result
        tmp = self._file(key) + ".tmp"
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(result, handle)
            os.replace(tmp, self._file(key))
        except OSError:
            self.write_errors += 1
            return
        self.stores += 1
        if OBS.events is not None:
            OBS.events.emit("cache_store", key=key[:12])
        if self.max_entries is not None:
            if self._disk_count is None:
                self._disk_count = len(self._entries())
            else:
                self._disk_count += 1
            if self._disk_count > self.max_entries:
                # Evict ~5% below the bound so a cache sitting at
                # capacity re-scans the directory once per batch of
                # stores instead of on every single one.
                self.prune(self.max_entries - self.max_entries // 20)

    def _entries(self) -> list:
        """On-disk entries as ``(mtime, size, path)``, oldest first."""
        entries = []
        for name in os.listdir(self.path):
            if not name.endswith(".pkl"):
                continue
            full = os.path.join(self.path, name)
            try:
                info = os.stat(full)
            except OSError:
                continue
            entries.append((info.st_mtime, info.st_size, full))
        entries.sort()
        return entries

    def stats(self) -> dict:
        """On-disk footprint plus this process's hit/miss counters."""
        entries = self._entries()
        return {
            "path": self.path,
            "entries": len(entries),
            "bytes": sum(size for _mtime, size, _path in entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }

    def _counters_file(self) -> str:
        return os.path.join(self.path, COUNTERS_NAME)

    def _read_counters(self) -> dict:
        """The sidecar's totals (zeros when absent or unreadable —
        counters are diagnostics, never worth failing a run over)."""
        try:
            with open(self._counters_file()) as stream:
                data = json.load(stream)
            counters = data["counters"]
            return {key: int(counters.get(key, 0))
                    for key in _COUNTER_KEYS}
        except (OSError, ValueError, TypeError, KeyError):
            return {key: 0 for key in _COUNTER_KEYS}

    def flush_counters(self) -> None:
        """Merge this process's unflushed hit/miss/store/evict deltas
        into the ``counters.json`` sidecar (read-modify-atomic-write).

        Called after every batch of fresh points and at the end of
        every sweep and campaign, so ``repro cache stats`` reports *lifetime* rates across all
        the processes that ever used the directory.  Idempotent: each
        delta is written exactly once.  Best-effort like the cache
        itself — an unwritable sidecar degrades to in-process counts.
        """
        current = {"hits": self.hits, "misses": self.misses,
                   "stores": self.stores, "evictions": self.evictions,
                   "write_errors": self.write_errors}
        delta = {key: current[key] - self._flushed[key]
                 for key in _COUNTER_KEYS}
        if not any(delta.values()):
            return
        totals = self._read_counters()
        for key in _COUNTER_KEYS:
            totals[key] += delta[key]
        tmp = self._counters_file() + ".tmp"
        try:
            with open(tmp, "w") as stream:
                json.dump({"version": COUNTERS_VERSION,
                           "counters": totals}, stream, indent=2,
                          sort_keys=True)
                stream.write("\n")
            os.replace(tmp, self._counters_file())
        except OSError:
            return
        self._flushed = current

    def lifetime_stats(self) -> dict:
        """Sidecar totals plus this process's not-yet-flushed deltas."""
        totals = self._read_counters()
        current = {"hits": self.hits, "misses": self.misses,
                   "stores": self.stores, "evictions": self.evictions,
                   "write_errors": self.write_errors}
        for key in _COUNTER_KEYS:
            totals[key] += current[key] - self._flushed[key]
        return totals

    def prune(self, max_entries: Optional[int] = None) -> int:
        """Evict least-recently-used entries beyond ``max_entries``.

        ``None`` falls back to the instance bound (a no-op when that is
        also unset).  Returns the number of entries removed.  Eviction
        is disk-wide — entries written under other fingerprints (or by
        other processes) count and age out like any others.
        """
        limit = self.max_entries if max_entries is None else max_entries
        if limit is None:
            return 0
        if limit < 0:
            raise ValueError(f"max_entries must be >= 0, got {limit}")
        entries = self._entries()
        removed = 0
        for _mtime, _size, full in entries[:max(0, len(entries) - limit)]:
            try:
                os.unlink(full)
            except OSError:
                continue
            key = os.path.basename(full)[:-len(".pkl")]
            self._memory.pop(key, None)
            removed += 1
        self.evictions += removed
        if removed and OBS.events is not None:
            OBS.events.emit("cache_evict", count=removed)
        self._disk_count = len(entries) - removed
        return removed

    def clear(self) -> None:
        """Drop every cached point (memory and disk)."""
        self._memory.clear()
        for name in os.listdir(self.path):
            if name.endswith(".pkl"):
                os.unlink(os.path.join(self.path, name))
        self._disk_count = 0


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all cores."""
    if not jobs:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return jobs


def jobs_argument(text: str) -> int:
    """argparse ``type=`` validator for ``--jobs`` flags.

    The single definition of the flag's contract (non-negative int,
    0 = all CPUs), shared by the ``repro`` CLI and the examples so the
    entry points cannot drift.
    """
    import argparse
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all CPUs), got {jobs}")
    return jobs
