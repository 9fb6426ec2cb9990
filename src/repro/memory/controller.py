"""Bank controller: the single port in front of each SPM bank.

Contention in a multi-banked SPM system materializes here: the bank
accepts **one request per cycle**.  Requests (and Colibri
WakeUpRequests) arriving while the port is busy queue up in arrival
order; the waiting time they accumulate is exactly the serialization
the paper's histogram experiment measures when many cores hit one bin.

The controller owns the storage and the variant adapter and offers the
small service interface the adapters run against: ``read``/``write`` on
byte addresses, ``respond`` and Colibri's ``send_successor_update``.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from ..arch.address_map import AddressMap
from ..engine.events import MASK, SPAN
from ..engine.simulator import Simulator
from ..engine.stats import BankStats
from ..interconnect.messages import (
    MemRequest,
    MemResponse,
    Op,
    Status,
    SuccessorUpdate,
    WakeUpRequest,
)
from ..interconnect.network import Network
from .adapter import AtomicAdapter
from .bank import SpmBank
from .variants import VariantSpec, get_variant


def _handle(adapter, req) -> None:
    adapter.handle(req)


_HANDLE_EVERY_OP = (_handle,) * len(Op)


def adapter_factory(variant: VariantSpec, num_cores: int,
                    strict: bool) -> Callable[["BankController"],
                                              AtomicAdapter]:
    """The per-bank adapter constructor of a :class:`VariantSpec`.

    The variant is looked up in the registry and its symbolic
    parameters (``half``/``cores``/``ideal``) resolve against
    ``num_cores`` here, once per machine, so a bad parameter raises
    :class:`~repro.engine.errors.ConfigError` at build time.  The
    returned callable builds one bank's adapter from the resolved
    parameters, which every bank shares.
    """
    plugin = get_variant(variant.kind)
    params = variant.resolved(num_cores)

    def make_adapter(controller: "BankController") -> AtomicAdapter:
        return plugin.make_adapter(controller, params, num_cores, strict)

    return make_adapter


class BankController:
    """One SPM bank, its port scheduler, and its atomic adapter.

    A :class:`~repro.machine.Machine` builds a controller the first
    time its bank is reached, possibly mid-run, so construction only
    sets up state and registers the bank with the network.
    """

    def __init__(self, bank_id: int, sim: Simulator, network: Network,
                 address_map: AddressMap, stats: BankStats,
                 make_adapter: Callable[["BankController"],
                                        AtomicAdapter]) -> None:
        self.bank_id = bank_id
        self.sim = sim
        self.network = network
        self.address_map = address_map
        self.stats = stats
        #: Telemetry hub (stable object); adapters reach it through the
        #: controller so fakes can supply their own in tests.
        self.telemetry = sim.telemetry
        self.bank = SpmBank(bank_id, address_map.words_per_bank,
                            address_map.word_bytes)
        # Hot-path aliases: the bank's rows and the address decode of
        # :meth:`AddressMap.locate`.
        self._data = self.bank.data
        self._mask = self.bank.mask
        self._word_bytes = address_map.word_bytes
        self._num_banks = address_map.num_banks
        self._memory_bytes = address_map.memory_bytes
        self.adapter = make_adapter(self)
        #: The adapter class's per-op service functions; an adapter
        #: that is not an :class:`AtomicAdapter` serves every op
        #: through its ``handle``.
        self._serve = getattr(self.adapter, "_SERVE", _HANDLE_EVERY_OP)
        self.service_cycles = address_map.config.latency.bank_cycles
        #: First cycle at which the port can accept the next request.
        self._port_free_at = 0
        network.register_bank(bank_id, self.receive)

    # -- port scheduling -------------------------------------------------------

    def receive(self, msg) -> None:
        """Network delivery: service the message now if the port is
        free, else queue it for the cycle the port frees up.

        A free port services the message right here: one call of the
        adapter class's service function for the op (its ``_SERVE``
        table), or of ``handle_wakeup`` for a Colibri WakeUpRequest.
        """
        sim = self.sim
        now = sim.now
        start = self._port_free_at
        stats = self.stats
        if start > now:
            stats.conflicts += 1
        else:
            start = now
        self._port_free_at = start + self.service_cycles
        stats.busy_cycles += self.service_cycles
        cb = self.telemetry.on_bank_access
        if cb is not None:
            cb(now, self.bank_id, msg, start - now)
        if start == now:
            # The service body; :meth:`_serve_queued` is the same for a
            # message that waited for the port.
            stats.accesses += 1
            cb = self.telemetry.on_bank_service
            if cb is not None:
                cb(now, self.bank_id, msg)
            if isinstance(msg, WakeUpRequest):
                self.adapter.handle_wakeup(msg)
            else:
                self._serve[msg.op.index](self.adapter, msg)
        else:
            # ``start > now``: the entry needs none of schedule_at's
            # checks.
            if start - now < SPAN:
                next(sim.seq)
                sim.ring[start & MASK].append((self._serve_queued, msg))
            else:
                heappush(sim.far,
                         (start, next(sim.seq), (self._serve_queued, msg)))

    def _serve_queued(self, msg) -> None:
        """A queued message holds the port this cycle: service it."""
        self.stats.accesses += 1
        cb = self.telemetry.on_bank_service
        if cb is not None:
            cb(self.sim.now, self.bank_id, msg)
        if isinstance(msg, WakeUpRequest):
            self.adapter.handle_wakeup(msg)
        else:
            self._serve[msg.op.index](self.adapter, msg)

    # -- adapter service interface -------------------------------------------------

    def read(self, addr: int) -> int:
        """Load the word at a byte address (must map to this bank).

        Decodes as :meth:`AddressMap.locate` in one step: an address
        that passes its alignment and range test has a row inside the
        bank, and :meth:`AddressMap.check` raises the error otherwise.
        """
        word_bytes = self._word_bytes
        if addr % word_bytes or not 0 <= addr < self._memory_bytes:
            self.address_map.check(addr)
        word = addr // word_bytes
        num_banks = self._num_banks
        assert word % num_banks == self.bank_id, \
            "request routed to wrong bank"
        return self._data[word // num_banks]

    def write(self, addr: int, value: int) -> None:
        """Store a word at a byte address (must map to this bank);
        decoded as in :meth:`read`, truncated to the word width."""
        word_bytes = self._word_bytes
        if addr % word_bytes or not 0 <= addr < self._memory_bytes:
            self.address_map.check(addr)
        word = addr // word_bytes
        num_banks = self._num_banks
        assert word % num_banks == self.bank_id, \
            "request routed to wrong bank"
        self._data[word // num_banks] = value & self._mask

    def respond(self, req: MemRequest, value: int = 0,
                status: Status = Status.OK,
                successor_pending: bool = False) -> None:
        """Send a response for ``req`` back through the network."""
        resp = MemResponse(req.op, req.core_id, req.addr, value, status,
                           req.req_id, successor_pending)
        cb = self.telemetry.on_bank_response
        if cb is not None:
            cb(self.sim.now, self.bank_id, resp)
        self.network.send_response(resp, self.bank_id)

    def send_successor_update(self, msg: SuccessorUpdate) -> None:
        """Forward a Colibri enqueue-link message to a Qnode."""
        self.network.send_successor_update(msg)

    # -- debug/test access ----------------------------------------------------------

    def peek(self, addr: int) -> int:
        """Read memory without simulating an access (test setup)."""
        return self.read(addr)

    def poke(self, addr: int, value: int) -> None:
        """Write memory without simulating an access (test setup)."""
        self.write(addr, value)
