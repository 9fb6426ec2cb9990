"""Built-in telemetry probes.

Four probes cover the paper's diagnostic questions:

* :class:`BankContention` — *where do the cycles go under contention?*
  Per-bank access/conflict/queued-cycle counters binned over fixed
  cycle windows (the contention heatmap), plus failed-response counts
  (the retry storms LR/SC suffers on hot bins).
* :class:`CoreTimeline` — *what is each core doing?*  Contiguous
  running/stalled/sleeping state spans per core, the data behind the
  ASCII timeline and the VCD core signals.
* :class:`QueueOccupancy` — *how full are the reservation queues?*
  Wait-queue depth over time per bank for LRSCwait's bounded queue and
  Colibri's distributed waiter lists.
* :class:`MessageLatency` — *how long do requests take?*  Power-of-two
  round-trip histograms per operation, plus interconnect message counts
  by distance class.

Probes receive message objects duck-typed (``msg.op.value`` when the
message carries an op, ``wakeup_request`` otherwise), so this module
needs nothing from the interconnect layer.

Each class also defines its section's CSV rows, ASCII view (drawn with
:mod:`repro.eval.reporting`) and schema check.
"""

from __future__ import annotations

from ..obs.schema import SchemaError, _require
from .probes import Probe, register_probe

#: Core-state glyphs shared by the ASCII timeline and its legend.
TIMELINE_GLYPHS = {
    "idle": " ",
    "active": "#",
    "stalled": "-",
    "sleeping": ".",
    "finished": " ",
}


def _int_list(item, length: int) -> bool:
    """True when ``item`` is a list of ``length`` ints."""
    return (isinstance(item, list) and len(item) == length
            and all(isinstance(value, int) for value in item))


def _op_name(msg) -> str:
    """Mnemonic of a bank-port message (requests and WakeUpRequests)."""
    op = getattr(msg, "op", None)
    return op.value if op is not None else "wakeup_request"


@register_probe("bank_contention")
class BankContention(Probe):
    """Per-bank access/conflict/retry counters over cycle windows."""

    description = ("per-bank port accesses, conflicts, queued cycles and "
                   "failed responses, binned over cycle windows "
                   "(the contention heatmap)")

    def __init__(self, window: int = 256) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        #: bank -> window index -> [accesses, conflicts, queued_cycles]
        self._windows: dict = {}
        #: bank -> [accesses, conflicts, queued_cycles, failed_responses]
        self._totals: dict = {}
        self._num_banks = 0

    def install(self, machine) -> None:
        self._num_banks = machine.config.num_banks
        machine.telemetry.subscribe("bank_access", self._on_access)
        machine.telemetry.subscribe("bank_response", self._on_response)

    def _on_access(self, cycle, bank_id, msg, queued) -> None:
        bucket = self._windows.setdefault(bank_id, {})
        index = cycle // self.window
        cell = bucket.get(index)
        if cell is None:
            cell = bucket[index] = [0, 0, 0]
        cell[0] += 1
        totals = self._totals.get(bank_id)
        if totals is None:
            totals = self._totals[bank_id] = [0, 0, 0, 0]
        totals[0] += 1
        if queued:
            cell[1] += 1
            cell[2] += queued
            totals[1] += 1
            totals[2] += queued

    def _on_response(self, cycle, bank_id, resp) -> None:
        if resp.status.value != "ok":
            totals = self._totals.get(bank_id)
            if totals is None:
                totals = self._totals[bank_id] = [0, 0, 0, 0]
            totals[3] += 1

    def report(self) -> dict:
        banks = []
        for bank_id in range(self._num_banks):
            totals = self._totals.get(bank_id, [0, 0, 0, 0])
            windows = self._windows.get(bank_id, {})
            banks.append({
                "bank": bank_id,
                "accesses": totals[0],
                "conflicts": totals[1],
                "queued_cycles": totals[2],
                "failed_responses": totals[3],
                "windows": [[index] + list(cell)
                            for index, cell in sorted(windows.items())],
            })
        return {"window_cycles": self.window, "banks": banks}

    @staticmethod
    def rows(section: dict) -> tuple:
        headers = ["bank", "window_start", "accesses", "conflicts",
                   "queued_cycles"]
        window = section["window_cycles"]
        rows = []
        for bank in section["banks"]:
            for index, accesses, conflicts, queued in bank["windows"]:
                rows.append([bank["bank"], index * window, accesses,
                             conflicts, queued])
        return headers, rows

    @staticmethod
    def render(report, section: dict, width: int) -> str:
        from ..eval.reporting import render_heatmap, render_table
        window = section["window_cycles"]
        num_windows = max(1, -(-max(report.cycles, 1) // window))
        matrix = []
        labels = []
        idle = 0
        for bank in section["banks"]:
            if not bank["accesses"]:
                idle += 1
                continue
            dense = [0] * num_windows
            for index, accesses, _conflicts, _queued in bank["windows"]:
                if index < num_windows:
                    dense[index] += accesses
            matrix.append(dense)
            labels.append(f"bank{bank['bank']}")
        suffix = f"; {idle} idle banks omitted" if idle else ""
        heat = render_heatmap(
            matrix, labels, width=width,
            title=(f"bank accesses per {window}-cycle window "
                   f"(total {report.cycles} cycles{suffix})"))
        rows = [(bank["bank"], bank["accesses"], bank["conflicts"],
                 bank["queued_cycles"], bank["failed_responses"])
                for bank in section["banks"] if bank["accesses"]]
        totals = render_table(
            ["bank", "accesses", "conflicts", "queued cycles", "failed resp"],
            rows, title="bank totals (banks with traffic)")
        return heat + "\n\n" + totals

    @staticmethod
    def check(section: dict, where: str) -> None:
        _require(section, "window_cycles", int, where)
        for bank in _require(section, "banks", list, where):
            for key in ("bank", "accesses", "conflicts", "queued_cycles",
                        "failed_responses"):
                _require(bank, key, int, f"{where}.banks")
            for cell in _require(bank, "windows", list, f"{where}.banks"):
                if not _int_list(cell, 4):
                    raise SchemaError(
                        f"{where}: bad window cell {cell!r} "
                        "(want [index, accesses, conflicts, queued])")


@register_probe("core_timeline")
class CoreTimeline(Probe):
    """Running/stalled/sleeping state spans per core."""

    description = ("contiguous FSM-state spans per core "
                   "(active/stalled/sleeping timeline; VCD-exportable)")

    def __init__(self) -> None:
        #: core -> [[state, start, end], ...] recorded spans.
        self._spans: dict = {}
        #: core -> [state, start, end] the open span; it is in
        #: ``_spans`` too once a finalize has closed it at ``end``.
        self._open: dict = {}

    def install(self, machine) -> None:
        now = machine.sim.now
        for core in machine.cores:
            self._spans[core.core_id] = []
            self._open[core.core_id] = [core.state, now, now]
        machine.telemetry.subscribe("core_state", self._on_state)

    def _close(self, core_id, span, end) -> None:
        """End ``span`` at ``end``, recording it once (if non-empty)."""
        if end > span[1]:
            span[2] = end
            spans = self._spans[core_id]
            if not spans or spans[-1] is not span:
                spans.append(span)

    def _on_state(self, cycle, core_id, state) -> None:
        self._close(core_id, self._open[core_id], cycle)
        self._open[core_id] = [state, cycle, cycle]

    def finalize(self, machine, stats) -> None:
        # Close every open span at ``now`` but keep it open: a later
        # window of the same run extends it, so chunked runs record the
        # spans one long run would.
        end = machine.sim.now
        for core_id, span in self._open.items():
            self._close(core_id, span, end)

    def spans(self) -> dict:
        """core_id -> closed ``[state, start, end]`` spans (post-run)."""
        return {core: list(spans) for core, spans in self._spans.items()}

    def report(self) -> dict:
        totals: dict = {}
        cores = []
        for core_id in sorted(self._spans):
            spans = self._spans[core_id]
            for state, start, end in spans:
                totals[state] = totals.get(state, 0) + (end - start)
            cores.append({"core": core_id, "spans": spans})
        return {"cores": cores, "state_totals": totals}

    @staticmethod
    def rows(section: dict) -> tuple:
        rows = [[core["core"], state, start, end]
                for core in section["cores"]
                for state, start, end in core["spans"]]
        return ["core", "state", "start", "end"], rows

    @staticmethod
    def render(report, section: dict, width: int) -> str:
        from ..eval.reporting import render_timeline
        lanes = [(f"core{core['core']}",
                  [(state, start, end)
                   for state, start, end in core["spans"]])
                 for core in section["cores"]]
        legend = "  ".join(f"{glyph or ' '!r}={state}"
                           for state, glyph in TIMELINE_GLYPHS.items()
                           if glyph.strip())
        return render_timeline(
            lanes, end=max(report.cycles, 1), width=width,
            glyphs=TIMELINE_GLYPHS,
            title=f"core states over {report.cycles} cycles ({legend})")

    @staticmethod
    def check(section: dict, where: str) -> None:
        for core in _require(section, "cores", list, where):
            _require(core, "core", int, f"{where}.cores")
            spans_where = f"{where}.cores[{core.get('core')}]"
            for span in _require(core, "spans", list, f"{where}.cores"):
                if not (isinstance(span, list) and len(span) == 3
                        and isinstance(span[0], str)
                        and _int_list(span[1:], 2)):
                    raise SchemaError(f"{spans_where}: bad span {span!r} "
                                      "(want [state, start, end])")
                if span[2] < span[1]:
                    raise SchemaError(f"{spans_where}: span {span!r} ends "
                                      "before it starts")
        _require(section, "state_totals", dict, where)


@register_probe("queue_occupancy")
class QueueOccupancy(Probe):
    """Reservation/wait-queue depth over time per bank."""

    description = ("wait-queue occupancy samples, max depth and "
                   "time-weighted mean depth per bank")

    def __init__(self) -> None:
        #: bank -> [[cycle, depth], ...] one sample per change-cycle.
        self._samples: dict = {}
        self._means: dict = {}
        self._num_banks = 0

    def install(self, machine) -> None:
        self._num_banks = machine.config.num_banks
        machine.telemetry.subscribe("queue_depth", self._on_depth)

    def _on_depth(self, cycle, bank_id, depth) -> None:
        samples = self._samples.setdefault(bank_id, [])
        if samples and samples[-1][0] == cycle:
            samples[-1][1] = depth
        else:
            samples.append([cycle, depth])

    def finalize(self, machine, stats) -> None:
        end = machine.sim.now
        for bank_id, samples in self._samples.items():
            if end <= 0:
                self._means[bank_id] = 0.0
                continue
            area = 0
            previous_cycle, previous_depth = 0, 0
            for cycle, depth in samples:
                area += previous_depth * (cycle - previous_cycle)
                previous_cycle, previous_depth = cycle, depth
            area += previous_depth * (end - previous_cycle)
            self._means[bank_id] = area / end

    def report(self) -> dict:
        banks = []
        for bank_id in range(self._num_banks):
            samples = self._samples.get(bank_id, [])
            banks.append({
                "bank": bank_id,
                "max_depth": max((depth for _c, depth in samples),
                                 default=0),
                "mean_depth": self._means.get(bank_id, 0.0),
                "samples": samples,
            })
        return {"banks": banks}

    @staticmethod
    def rows(section: dict) -> tuple:
        rows = [[bank["bank"], cycle, depth]
                for bank in section["banks"]
                for cycle, depth in bank["samples"]]
        return ["bank", "cycle", "depth"], rows

    @staticmethod
    def render(report, section: dict, width: int) -> str:
        from ..eval.reporting import render_table
        rows = [(bank["bank"], bank["max_depth"], bank["mean_depth"])
                for bank in section["banks"] if bank["samples"]]
        if not rows:
            rows = [("(no queue activity)", "", "")]
        return render_table(["bank", "max depth", "mean depth"], rows,
                            title="reservation/wait-queue occupancy")

    @staticmethod
    def check(section: dict, where: str) -> None:
        for bank in _require(section, "banks", list, where):
            _require(bank, "bank", int, f"{where}.banks")
            _require(bank, "max_depth", int, f"{where}.banks")
            _require(bank, "mean_depth", (int, float), f"{where}.banks")
            for sample in _require(bank, "samples", list, f"{where}.banks"):
                if not _int_list(sample, 2):
                    raise SchemaError(f"{where}: bad sample {sample!r}")


@register_probe("message_latency")
class MessageLatency(Probe):
    """Round-trip latency histograms and interconnect traffic classes."""

    description = ("per-op round-trip latency histograms (power-of-two "
                   "buckets) plus message counts per route class")

    def __init__(self) -> None:
        #: op -> [count, total, max, {bucket_exponent: count}]
        self._round_trip: dict = {}
        #: kind -> {route class: count}
        self._messages: dict = {}

    def install(self, machine) -> None:
        machine.telemetry.subscribe("response", self._on_response)
        machine.telemetry.subscribe("message", self._on_message)

    def _on_response(self, cycle, core_id, resp, waited) -> None:
        entry = self._round_trip.get(resp.op.value)
        if entry is None:
            entry = self._round_trip[resp.op.value] = [0, 0, 0, {}]
        entry[0] += 1
        entry[1] += waited
        if waited > entry[2]:
            entry[2] = waited
        exponent = max(int(waited) - 1, 0).bit_length()
        buckets = entry[3]
        buckets[exponent] = buckets.get(exponent, 0) + 1

    def _on_message(self, cycle, kind, cls, latency, hops) -> None:
        by_class = self._messages.setdefault(kind, {})
        by_class[cls] = by_class.get(cls, 0) + 1

    def report(self) -> dict:
        round_trip = {}
        for op, (count, total, peak, buckets) in sorted(
                self._round_trip.items()):
            round_trip[op] = {
                "count": count,
                "total_cycles": total,
                "mean_cycles": total / count if count else 0.0,
                "max_cycles": peak,
                # Bucket upper bounds are powers of two: [upper, count]
                # counts waits in (upper/2, upper] cycles (the first
                # bucket, upper 1, also absorbs zero-cycle waits).
                "histogram": [[2 ** exponent, n]
                              for exponent, n in sorted(buckets.items())],
            }
        messages = {kind: dict(sorted(by_class.items()))
                    for kind, by_class in sorted(self._messages.items())}
        return {"round_trip": round_trip, "messages": messages}

    @staticmethod
    def rows(section: dict) -> tuple:
        rows = [[op, upper, count]
                for op, entry in section["round_trip"].items()
                for upper, count in entry["histogram"]]
        return ["op", "bucket_le_cycles", "count"], rows

    @staticmethod
    def render(report, section: dict, width: int) -> str:
        from ..eval.reporting import render_table
        rows = [(op, entry["count"], entry["mean_cycles"],
                 entry["max_cycles"])
                for op, entry in section["round_trip"].items()]
        return render_table(["op", "count", "mean cycles", "max cycles"],
                            rows, title="request round-trip latency")

    @staticmethod
    def check(section: dict, where: str) -> None:
        round_trip = _require(section, "round_trip", dict, where)
        for op, entry in round_trip.items():
            sub = f"{where}.round_trip[{op!r}]"
            _require(entry, "count", int, sub)
            _require(entry, "total_cycles", int, sub)
            _require(entry, "mean_cycles", (int, float), sub)
            _require(entry, "max_cycles", int, sub)
            for bucket in _require(entry, "histogram", list, sub):
                if not _int_list(bucket, 2):
                    raise SchemaError(
                        f"{sub}: bad histogram bucket {bucket!r}")
        _require(section, "messages", dict, where)
