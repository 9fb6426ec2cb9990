"""Counters, gauges and timers for the experiment platform.

The simulator's own counters (:mod:`repro.engine.stats`) measure the
*simulated machine*; this registry measures the *harness running it* —
cache hits, points per second.  Three shapes cover every
instrumentation site:

* **counters** — monotonically increasing event counts (``cache.hit``,
  ``campaign.free``): :meth:`MetricsRegistry.inc`;
* **gauges** — last-written point-in-time values
  (``campaign.budget_remaining``): :meth:`MetricsRegistry.gauge`;
* **timers** — duration distributions (``span.point``,
  ``span.phase``): :meth:`MetricsRegistry.observe` accumulates count,
  total, min and max in seconds;
* **histograms** — the same distributions with *shape*: a
  :class:`Histogram` of fixed power-of-two latency buckets whose
  p50/p90/p99 summaries back ``repro status``'s ETA math (and, later,
  ``repro serve``'s latency reporting).  :meth:`MetricsRegistry.histo`
  folds one observation in.

Everything is plain dicts of JSON scalars so a snapshot pickles across
worker processes and embeds directly in the exported trace document;
:meth:`MetricsRegistry.merge` folds a worker's snapshot into the
parent's registry (counters and timers add, gauges last-write-win),
which is what makes ``jobs=1`` and ``jobs=N`` runs report identical
totals.
"""

from __future__ import annotations


class Histogram:
    """Fixed power-of-two bucket latency histogram (seconds in).

    Bucket ``b`` holds observations whose microsecond value has bit
    length ``b`` — i.e. values in ``[2^(b-1), 2^b)`` µs — with 64
    buckets covering sub-microsecond through ~146 hours.  Constant
    memory, O(1) observe, and quantiles in one pass: each quantile
    reports its bucket's inclusive upper bound (``2^b - 1`` µs), a
    deliberate overestimate of at most 2x which is the right bias for
    the ETA math built on it.
    """

    BUCKETS = 64

    __slots__ = ("count", "total_s", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.buckets = [0] * self.BUCKETS

    def observe(self, seconds: float) -> None:
        """Fold one duration (seconds) into its power-of-two bucket."""
        us = int(seconds * 1e6)
        index = us.bit_length() if us > 0 else 0
        if index >= self.BUCKETS:
            index = self.BUCKETS - 1
        self.buckets[index] += 1
        self.count += 1
        self.total_s += seconds

    def quantile(self, q: float) -> float:
        """The ``q``-quantile in seconds (bucket upper bound)."""
        if not self.count:
            return 0.0
        target = int(q * self.count)
        if target < q * self.count:
            target += 1
        target = max(1, target)
        cumulative = 0
        for index, occupancy in enumerate(self.buckets):
            cumulative += occupancy
            if cumulative >= target:
                return ((1 << index) - 1) / 1e6
        return ((1 << (self.BUCKETS - 1)) - 1) / 1e6

    def summary(self) -> dict:
        """count/mean and p50/p90/p99, all JSON scalars."""
        mean = self.total_s / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": mean,
            "p50_s": self.quantile(0.50),
            "p90_s": self.quantile(0.90),
            "p99_s": self.quantile(0.99),
        }

    def to_dict(self) -> dict:
        """Picklable/JSON-able form (bucket list trimmed of the tail)."""
        top = 0
        for index, occupancy in enumerate(self.buckets):
            if occupancy:
                top = index + 1
        return {"count": self.count, "total_s": self.total_s,
                "buckets": self.buckets[:top]}

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        histogram = cls()
        histogram.merge_dict(data)
        return histogram

    def merge_dict(self, data: dict) -> None:
        """Fold another histogram's :meth:`to_dict` into this one."""
        self.count += data.get("count", 0)
        self.total_s += data.get("total_s", 0.0)
        for index, occupancy in enumerate(data.get("buckets", ())):
            if index < self.BUCKETS:
                self.buckets[index] += occupancy


class MetricsRegistry:
    """In-process metric store; see the module docstring for the model."""

    def __init__(self) -> None:
        self.counters: dict = {}
        self.gauges: dict = {}
        self.timers: dict = {}
        self.histograms: dict = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Fold one duration into timer ``name``."""
        timer = self.timers.get(name)
        if timer is None:
            self.timers[name] = {"count": 1, "total_s": seconds,
                                 "min_s": seconds, "max_s": seconds}
            return
        timer["count"] += 1
        timer["total_s"] += seconds
        if seconds < timer["min_s"]:
            timer["min_s"] = seconds
        if seconds > timer["max_s"]:
            timer["max_s"] = seconds

    def histo(self, name: str, seconds: float) -> None:
        """Fold one duration into histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(seconds)

    def merge(self, counters: dict = None, gauges: dict = None,
              timers: dict = None, histograms: dict = None) -> None:
        """Fold another registry's snapshot into this one.

        Counters and timers are additive across processes; gauges are
        point-in-time, so the merged-in value simply wins.
        """
        for name, amount in (counters or {}).items():
            self.counters[name] = self.counters.get(name, 0) + amount
        for name, value in (gauges or {}).items():
            self.gauges[name] = value
        for name, timer in (timers or {}).items():
            mine = self.timers.get(name)
            if mine is None:
                self.timers[name] = dict(timer)
                continue
            mine["count"] += timer["count"]
            mine["total_s"] += timer["total_s"]
            mine["min_s"] = min(mine["min_s"], timer["min_s"])
            mine["max_s"] = max(mine["max_s"], timer["max_s"])
        for name, data in (histograms or {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.merge_dict(data)

    def snapshot(self) -> dict:
        """A picklable/JSON-able copy of every metric."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {name: dict(timer)
                       for name, timer in self.timers.items()},
            "histograms": {name: histogram.to_dict()
                           for name, histogram in
                           self.histograms.items()},
        }

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.timers.clear()
        self.histograms.clear()
