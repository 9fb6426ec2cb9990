"""Sense-reversing central barrier.

A classic centralized barrier used by multi-phase workloads (and as an
Mwait demonstration): arrivals are counted with ``amoadd``; the last
arriver resets the count and flips the shared *sense* word; everyone
else waits for the sense flip — by sleeping on it with **Mwait** when
the hardware supports it, by polling with backoff otherwise.

This is exactly the producer/consumer-style "waiting for a shared
variable outside a critical section" situation the paper motivates
Mwait with (§I, §III-C).
"""

from __future__ import annotations

from ..cores.api import CoreApi
from ..interconnect.messages import QUEUE_FULL
from .backoff import FixedBackoff


class CentralBarrier:
    """Counter + sense word; ``wait`` parks the core until all arrive."""

    def __init__(self, count_addr: int, sense_addr: int, parties: int,
                 use_mwait: bool = True,
                 backoff=FixedBackoff(16)) -> None:
        self.count_addr = count_addr
        self.sense_addr = sense_addr
        self.parties = parties
        self.use_mwait = use_mwait
        self.backoff = backoff

    @classmethod
    def create(cls, machine, parties=None, use_mwait: bool = True
               ) -> "CentralBarrier":
        """Allocate the two barrier words for ``parties`` cores
        (defaults to all cores of the machine)."""
        if parties is None:
            parties = machine.config.num_cores
        return cls(machine.allocator.alloc_interleaved(1),
                   machine.allocator.alloc_interleaved(1),
                   parties, use_mwait=use_mwait)

    def wait(self, api: CoreApi):
        """Block until all ``parties`` cores have called ``wait``."""
        sense = yield from api.lw(self.sense_addr)
        arrived = yield from api.amo_add(self.count_addr, 1)
        if arrived + 1 == self.parties:
            # Last arriver: reset the count, flip the sense.
            yield from api.sw(self.count_addr, 0)
            yield from api.sw(self.sense_addr, 1 - sense)
            return
        if self.use_mwait:
            yield from self._sleep_on_sense(api, sense)
        else:
            yield from self._poll_sense(api, sense)

    def _sleep_on_sense(self, api: CoreApi, sense: int):
        attempt = 0
        while True:
            resp = yield from api.mwait(self.sense_addr, expected=sense)
            if resp.status is QUEUE_FULL:
                value = yield from api.lw(self.sense_addr)
                if value != sense:
                    return
                yield from api.compute(self.backoff.delay(api.rng, attempt))
                attempt += 1
                continue
            if resp.value != sense:
                return

    def _poll_sense(self, api: CoreApi, sense: int):
        attempt = 0
        while True:
            value = yield from api.lw(self.sense_addr)
            if value != sense:
                return
            yield from api.compute(self.backoff.delay(api.rng, attempt))
            attempt += 1
