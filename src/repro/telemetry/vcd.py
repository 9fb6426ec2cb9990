"""VCD (Value Change Dump) export of simulation traces.

Turns a :class:`~repro.telemetry.trace.Tracer` recording into a waveform
file viewable in GTKWave or any EDA waveform viewer:

* one string signal per **core** showing its FSM state (``active`` /
  ``stalled`` / ``sleeping`` / ``finished``);
* one string signal per **bank** showing the operation it services
  each cycle (``lrwait``, ``scwait``, ``amoadd``, ``wakeup_request``,
  …), returning to idle the cycle after.

String-typed VCD variables (``$var string``) are a GTKWave extension
that every mainstream viewer renders; they keep the dump
self-describing without an opcode legend.

Usage::

    tracer = Tracer(enabled=True)
    machine = Machine(config, variant, tracer=tracer)
    ...run...
    write_vcd(tracer, machine.config, "run.vcd")
"""

from __future__ import annotations

from typing import Optional, TextIO

from ..arch.config import SystemConfig
from .trace import Tracer

#: Trace kinds that represent a bank servicing something.
_IDLE = "idle"


def _identifier(index: int) -> str:
    """Compact VCD identifier codes (printable ASCII 33..126)."""
    chars = []
    index += 1
    while index:
        index, digit = divmod(index, 94)
        chars.append(chr(33 + digit))
    return "".join(chars)


class VcdWriter:
    """Minimal VCD writer for string-valued signals."""

    def __init__(self, stream: TextIO, timescale: str = "1ns") -> None:
        self.stream = stream
        self.timescale = timescale
        self._signals: dict = {}   # name -> id code
        self._header_done = False
        self._time: Optional[int] = None
        self._pending: list = []

    def add_signal(self, scope: str, name: str) -> str:
        """Declare one string signal; returns its id code."""
        if self._header_done:
            raise ValueError("cannot add signals after the header")
        code = _identifier(len(self._signals))
        self._signals[(scope, name)] = code
        return code

    def _write_header(self) -> None:
        write = self.stream.write
        write(f"$timescale {self.timescale} $end\n")
        scopes: dict = {}
        for (scope, name), code in self._signals.items():
            scopes.setdefault(scope, []).append((name, code))
        for scope in sorted(scopes):
            write(f"$scope module {scope} $end\n")
            for name, code in scopes[scope]:
                write(f"$var string 1 {code} {name} $end\n")
            write("$upscope $end\n")
        write("$enddefinitions $end\n")
        self._header_done = True

    def change(self, time: int, code: str, value: str) -> None:
        """Record a value change (times must be non-decreasing)."""
        if not self._header_done:
            self._write_header()
        if self._time is None or time > self._time:
            self._flush_pending()
            self.stream.write(f"#{time}\n")
            self._time = time
        elif time < self._time:
            raise ValueError("VCD changes must be time-ordered")
        safe = value.replace(" ", "_") or _IDLE
        self._pending.append(f"s{safe} {code}\n")

    def _flush_pending(self) -> None:
        for line in self._pending:
            self.stream.write(line)
        self._pending.clear()

    def finalize(self, end_time: Optional[int] = None) -> None:
        """Flush buffered changes and close the dump."""
        if not self._header_done:
            self._write_header()
        self._flush_pending()
        if end_time is not None and (self._time is None
                                     or end_time > self._time):
            self.stream.write(f"#{end_time}\n")


def write_vcd(tracer: Optional[Tracer], config: SystemConfig, path: str,
              core_states: Optional[dict] = None) -> int:
    """Convert a trace recording into a VCD file; returns #changes.

    Core signals come from ``core_state`` records; bank signals from
    the per-request service records, with an automatic return-to-idle
    one cycle after each service (banks are single-cycle here).

    ``core_states`` merges telemetry core-state timelines in as the
    same core signals: a mapping ``core_id -> [(state, start, end),
    ...]`` as produced by the ``core_timeline`` probe (each span opens a
    change at its start cycle).  With ``tracer=None`` the dump contains
    only those telemetry signals — the ``repro trace --format vcd``
    path, which needs no Tracer at all.
    """
    core_records = []
    bank_records = []
    records = tracer.records if tracer is not None else []
    for record in records:
        if record.kind == "core_state":
            core_records.append(record)
        elif record.source.startswith("bank"):
            bank_records.append(record)

    changes: list = []  # (time, source, value)
    for record in core_records:
        changes.append((record.cycle, record.source, record.detail))
    for core_id, spans in sorted((core_states or {}).items()):
        for state, start, _end in spans:
            changes.append((start, f"core{core_id}", state))
    for record in bank_records:
        changes.append((record.cycle, record.source, record.kind))
        changes.append((record.cycle + config.latency.bank_cycles,
                        record.source, _IDLE))
    # Return-to-idle entries may be overridden by a same-cycle service:
    # sort by time, idle-first so the service wins within a cycle.
    changes.sort(key=lambda c: (c[0], 0 if c[2] == _IDLE else 1))

    sources = sorted({source for _t, source, _v in changes})
    with open(path, "w") as stream:
        writer = VcdWriter(stream)
        codes = {}
        for source in sources:
            scope = "cores" if source.startswith("core") else "banks"
            codes[source] = writer.add_signal(scope, source)
        last: dict = {}
        count = 0
        for time, source, value in changes:
            if last.get(source) == value:
                continue
            writer.change(time, codes[source], value)
            last[source] = value
            count += 1
        writer.finalize()
    return count
