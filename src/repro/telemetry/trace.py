"""The protocol log: a telemetry probe that keeps every record.

It exists for debugging protocol interleavings (e.g. the Colibri
``SuccessorUpdate`` / ``WakeUpRequest`` races argued correct in paper
§IV-A): each core FSM transition, bank service and Colibri queue
alloc/free becomes one :class:`TraceRecord`, kept in simulation order
for filtering, rendering or VCD export after the run.  It is never
registered, so attach an instance: ``Machine(..., tracer=tracer)`` or
``machine.attach_probes([tracer])``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .probes import Probe


@dataclass
class TraceRecord:
    """One traced occurrence."""

    cycle: int
    source: str
    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        return f"[{self.cycle:>8}] {self.source:<16} {self.kind:<20} {self.detail}"


@dataclass
class Tracer(Probe):
    """Collects :class:`TraceRecord` entries when enabled.

    Its :meth:`render` is the record dump: being unregistered, the
    tracer never renders a report section.
    """

    name = "protocol_log"

    enabled: bool = False
    records: list = field(default_factory=list)
    #: Optional whitelist of record kinds; ``None`` records everything.
    kinds: Optional[set] = None

    def install(self, machine) -> None:
        telemetry = machine.telemetry
        telemetry.subscribe("core_state", self._on_core_state)
        telemetry.subscribe("bank_service", self._on_bank_service)
        telemetry.subscribe("protocol", self._on_protocol)

    def _on_core_state(self, cycle, core_id, state) -> None:
        self.log(cycle, f"core{core_id}", "core_state", state)

    def _on_bank_service(self, cycle, bank_id, msg) -> None:
        if not self.enabled:
            return
        op = getattr(msg, "op", None)
        if op is None:  # a Colibri WakeUpRequest
            self.log(cycle, f"bank{bank_id}", "wakeup_request",
                     f"from core {msg.from_core} "
                     f"successor {msg.successor} @0x{msg.addr:x}")
        else:
            self.log(cycle, f"bank{bank_id}", op.value,
                     f"core {msg.core_id} @0x{msg.addr:x}")

    def _on_protocol(self, cycle, bank_id, kind, detail) -> None:
        self.log(cycle, f"bank{bank_id}", kind, detail)

    def report(self) -> dict:
        return {"records": [[record.cycle, record.source, record.kind,
                             record.detail] for record in self.records]}

    def log(self, cycle: int, source: str, kind: str, detail: str = "") -> None:
        """Record one occurrence if tracing is on and the kind passes."""
        if not self.enabled:
            return
        if self.kinds is not None and kind not in self.kinds:
            return
        self.records.append(TraceRecord(cycle, source, kind, detail))

    def filter(self, kind: Optional[str] = None,
               source: Optional[str] = None) -> Iterable[TraceRecord]:
        """Yield records matching the given kind and/or source prefix."""
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if source is not None and not record.source.startswith(source):
                continue
            yield record

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable dump of (up to ``limit``) records."""
        chosen = self.records if limit is None else self.records[:limit]
        return "\n".join(str(record) for record in chosen)

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()
