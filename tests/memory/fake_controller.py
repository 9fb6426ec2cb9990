"""A minimal in-place controller double for adapter state-machine tests.

Runs adapters synchronously with no network or timing: responses and
SuccessorUpdates are appended to lists the tests inspect.  Addresses
map to rows directly (single-bank view), which is valid because every
adapter only ever sees addresses of its own bank.
"""

from __future__ import annotations

from repro.engine.stats import BankStats
from repro.interconnect.messages import MemRequest, MemResponse, Op, Status


class FakeController:
    """Implements the controller service interface adapters rely on."""

    def __init__(self, bank_id: int = 0, words: int = 64) -> None:
        from repro.engine.simulator import Simulator
        from repro.memory.bank import SpmBank

        self.bank_id = bank_id
        self.bank = SpmBank(bank_id, words)
        self.stats = BankStats(bank_id=bank_id)
        # Adapters read the clock and the telemetry hub through their
        # controller; a real (never-run) simulator provides both.
        self.sim = Simulator()
        self.telemetry = self.sim.telemetry
        self.responses: list = []
        self.successor_updates: list = []

    # -- service interface -------------------------------------------------

    def read(self, addr: int) -> int:
        return self.bank.read(addr // 4)

    def write(self, addr: int, value: int) -> None:
        self.bank.write(addr // 4, value)

    def respond(self, req: MemRequest, value: int = 0,
                status: Status = Status.OK,
                successor_pending: bool = False) -> None:
        self.responses.append(MemResponse(
            op=req.op, core_id=req.core_id, addr=req.addr, value=value,
            status=status, req_id=req.req_id,
            successor_pending=successor_pending))

    def send_successor_update(self, msg) -> None:
        self.successor_updates.append(msg)

    # -- test conveniences ----------------------------------------------------

    def pop_response(self) -> MemResponse:
        return self.responses.pop(0)

    def last_response(self) -> MemResponse:
        return self.responses[-1]


def request(op: Op, core: int, addr: int, value: int = 0,
            expected=None) -> MemRequest:
    """Shorthand request constructor."""
    return MemRequest(op=op, core_id=core, addr=addr, value=value,
                      expected=expected)
