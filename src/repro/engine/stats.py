"""Simulation statistics.

The energy model (Table II) and all throughput/fairness results
(Figs. 3-6) are pure functions of the counters collected here, so the
counters are the contract between the behavioural simulator and the
evaluation harness.  Every counter is documented with the physical event
it counts.

Three granularities exist:

* :class:`CoreStats` — one per simulated core.  Splits core time into
  *active* (fetching/executing), *stalled* (waiting for an ordinary
  memory response) and *sleeping* (waiting for a withheld LRwait/Mwait
  response — the polling-free state the paper introduces).
* :class:`BankStats` — one per SPM bank; counts port usage and
  conflicts, i.e. the serialization the paper attributes contention to.
* :class:`NetworkStats` — global message/hop counts, i.e. the traffic
  that retries and polling inject and that LRSCwait removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CoreStats:
    """Per-core activity counters."""

    core_id: int = 0
    #: Cycles spent executing instructions (compute or issuing requests).
    active_cycles: int = 0
    #: Cycles stalled on an in-flight ordinary memory operation.
    stalled_cycles: int = 0
    #: Cycles asleep waiting for a withheld LRwait/Mwait response.
    sleep_cycles: int = 0
    #: Dynamic instruction count (compute instructions, modelled 1/cycle).
    instructions: int = 0
    #: Memory requests issued, by mnemonic (``"lw"``, ``"sc"``...).
    requests: dict = field(default_factory=dict)
    #: Failed SC / SCwait operations (each one costs a retry round trip).
    sc_failures: int = 0
    #: Successful SC / SCwait operations.
    sc_successes: int = 0
    #: LRwait/Mwait requests rejected because the hardware queue was full.
    wait_rejections: int = 0
    #: Completed application-level operations (histogram updates,
    #: queue accesses...).  Kernels bump this by yielding a ``Retire``
    #: command (``RETIRE``, or ``CoreApi.retire()`` in user kernels).
    ops_completed: int = 0

    @property
    def total_requests(self) -> int:
        """All memory requests issued by this core."""
        return sum(self.requests.values())

    @property
    def total_cycles(self) -> int:
        """Accounted lifetime of the core (active + stalled + sleeping)."""
        return self.active_cycles + self.stalled_cycles + self.sleep_cycles


@dataclass
class BankStats:
    """Per-bank port counters."""

    bank_id: int = 0
    #: Requests serviced by the bank port (one per cycle max).
    accesses: int = 0
    #: Requests that found the port busy and had to queue.
    conflicts: int = 0
    #: Cycles the port spent busy (== accesses for a 1/cycle port).
    busy_cycles: int = 0
    #: Reservations placed (LR / LRwait / Mwait accepted).
    reservations_placed: int = 0
    #: Reservations killed by an interfering write.
    reservations_invalidated: int = 0

    @property
    def conflict_rate(self) -> float:
        """Fraction of requests that queued behind a busy port."""
        if self.accesses == 0:
            return 0.0
        return self.conflicts / self.accesses


@dataclass
class NetworkStats:
    """Global interconnect counters."""

    #: Messages injected, by message kind name.
    messages: dict = field(default_factory=dict)
    #: Sum over messages of the hop count of their route.
    hops: int = 0
    #: Total cycles requests queued at saturated tile-ingress ports —
    #: the interference metric behind Fig. 5.
    ingress_wait_cycles: int = 0

    @property
    def total_messages(self) -> int:
        """All messages delivered by the interconnect."""
        return sum(self.messages.values())


@dataclass
class SimStats:
    """Aggregated statistics of one simulation run."""

    cores: list = field(default_factory=list)
    banks: list = field(default_factory=list)
    network: NetworkStats = field(default_factory=NetworkStats)
    #: Final simulated cycle at which the run terminated.
    cycles: int = 0
    #: The :class:`~repro.memory.variants.VariantSpec` of the machine
    #: that produced this run (set by :class:`~repro.machine.Machine`);
    #: lets the energy model apply the variant's registered cost hook.
    variant: object = None

    # -- aggregate helpers -------------------------------------------------

    @property
    def total_ops(self) -> int:
        """Application-level operations retired across all cores."""
        return sum(c.ops_completed for c in self.cores)

    @property
    def throughput(self) -> float:
        """Operations retired per cycle (the y-axis of Figs. 3, 4, 6)."""
        if self.cycles == 0:
            return 0.0
        return self.total_ops / self.cycles

    @property
    def total_sc_failures(self) -> int:
        """System-wide failed SC/SCwait count (retry traffic)."""
        return sum(c.sc_failures for c in self.cores)

    @property
    def total_requests(self) -> int:
        """System-wide memory requests issued."""
        return sum(c.total_requests for c in self.cores)

    @property
    def total_active_cycles(self) -> int:
        """Sum of active cycles over all cores."""
        return sum(c.active_cycles for c in self.cores)

    @property
    def total_sleep_cycles(self) -> int:
        """Sum of sleeping cycles over all cores."""
        return sum(c.sleep_cycles for c in self.cores)

    @property
    def total_stalled_cycles(self) -> int:
        """Sum of stall cycles over all cores."""
        return sum(c.stalled_cycles for c in self.cores)

    def ops_per_core(self) -> list:
        """Retired op count per core (fairness band of Fig. 6)."""
        return [c.ops_completed for c in self.cores]

    def fairness_range(self) -> tuple:
        """``(min, max)`` per-core retired ops — the shaded band in Fig. 6."""
        ops = self.ops_per_core()
        participating = [o for o in ops if o > 0] or ops
        if not participating:
            return (0, 0)
        return (min(participating), max(participating))

    def jain_fairness(self) -> float:
        """Jain's fairness index over per-core retired operations.

        1.0 means perfectly even progress; 1/n means a single core made
        all the progress.  The paper reports fairness qualitatively via
        the min/max band; Jain's index condenses it to a scalar for
        tests and tables.
        """
        ops = self.ops_per_core()
        total = sum(ops)
        if total == 0:
            return 1.0
        square_sum = sum(o * o for o in ops)
        return (total * total) / (len(ops) * square_sum)
