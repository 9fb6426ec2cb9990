"""Shared artifact detection for everything the platform leaves on disk.

Several surfaces read the same families of files — telemetry reports,
Chrome traces, campaign journals, event logs — and each used to carry
its own sniffing logic.  This module is the single detector: hand it a
path, get back ``(kind, payload, warnings)`` where ``kind`` is
``"report"``, ``"trace"``, ``"journal"`` or ``"events"``.

In ``tolerant`` mode it additionally survives the crash case the
control plane exists for: an artifact cut mid-write.  Event logs are
line-oriented, so a torn tail is naturally a one-line warning; for the
JSON-document kinds, :func:`salvage_json` recovers the largest
syntactically-valid prefix (closing whatever brackets the truncation
left open) so ``repro obs summary`` and ``repro status`` can report
what *did* land instead of refusing the file.  Unsalvageable garbage
still raises — tolerance is for truncation, not for arbitrary bytes.
"""

from __future__ import annotations

import json

from ..engine.errors import ConfigError

#: How many trailing lines :func:`salvage_json` will retry cutting at.
_SALVAGE_ATTEMPTS = 2000

_CLOSERS = {"{": "}", "[": "]"}


def load_text(path: str) -> str:
    """Read an artifact file, with CLI-grade error messages."""
    try:
        with open(path, encoding="utf-8") as stream:
            return stream.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}")


def sniff_document(document: dict):
    """``"trace"`` / ``"journal"`` / ``"report"`` for a parsed dict,
    else ``None``."""
    if "traceEvents" in document:
        return "trace"
    if "evaluations" in document:
        return "journal"
    if "probes" in document:
        return "report"
    return None


def looks_like_events(text: str) -> bool:
    """Whether ``text`` is line-oriented event-log content.

    Decided from the first non-empty line alone: one JSON object per
    line carrying the ``event``/``seq`` envelope.  A trace or journal
    opens with a multi-line document, so its first line never parses
    as a complete object.
    """
    for line in text.split("\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            return False
        return isinstance(record, dict) and "event" in record \
            and "seq" in record
    return False


def _bracket_states(lines):
    """Per-line ``(stack, in_string)`` after consuming each line."""
    states = []
    stack = []
    in_string = False
    escape = False
    for line in lines:
        for char in line:
            if escape:
                escape = False
            elif in_string:
                if char == "\\":
                    escape = True
                elif char == '"':
                    in_string = False
            elif char == '"':
                in_string = True
            elif char in "{[":
                stack.append(char)
            elif char in "}]":
                if stack and _CLOSERS[stack[-1]] == char:
                    stack.pop()
        escape = False  # a newline inside a string ends any escape
        states.append(("".join(stack), in_string))
    return states


def salvage_json(text: str):
    """Parse the largest valid prefix of a truncated JSON document.

    Returns ``(document, dropped)`` where ``dropped`` counts the bytes
    cut from the tail; raises :class:`ValueError` when no prefix
    parses (i.e. the file is garbage, not merely truncated).
    """
    try:
        return json.loads(text), 0
    except ValueError:
        pass
    lines = text.split("\n")
    states = _bracket_states(lines)
    first = max(1, len(lines) - _SALVAGE_ATTEMPTS)
    for cut in range(len(lines) - 1, first - 1, -1):
        stack, in_string = states[cut - 1]
        if in_string:
            continue  # cannot cleanly cut inside a string literal
        candidate = "\n".join(lines[:cut]).rstrip()
        if candidate.endswith(","):
            candidate = candidate[:-1]
        if candidate.endswith(":"):
            continue  # a dangling key has no recoverable value
        candidate += "".join(_CLOSERS[char] for char in reversed(stack))
        try:
            document = json.loads(candidate)
        except ValueError:
            continue
        return document, len(text) - len("\n".join(lines[:cut]))
    raise ValueError("no parseable prefix")


def load_artifact(path: str, tolerant: bool = False):
    """Detect and load one artifact: ``(kind, payload, warnings)``.

    * ``kind == "events"``: payload is the list of parsed records, and
      a torn tail is always tolerated (warned, never fatal).
    * ``kind == "trace"`` / ``"journal"`` / ``"report"``: payload is
      the parsed dict.
      With ``tolerant=True`` a truncated document is salvaged back to
      its largest valid prefix, with a warning describing the cut.
    """
    text = load_text(path)
    if looks_like_events(text):
        from .eventlog import parse_events
        records, warnings = parse_events(text)
        return "events", records, warnings
    warnings = []
    try:
        document = json.loads(text)
    except ValueError as exc:
        if not tolerant:
            raise ConfigError(f"{path!r} is not valid JSON: {exc}")
        try:
            document, dropped = salvage_json(text)
        except ValueError:
            raise ConfigError(
                f"{path!r} is not valid JSON and no prefix of it "
                f"parses: {exc}")
        warnings.append(
            f"artifact truncated (crash mid-write?): recovered a valid "
            f"prefix, ignored the last {dropped} bytes")
    if not isinstance(document, dict):
        raise ConfigError(f"{path!r}: expected a JSON object")
    kind = sniff_document(document)
    if kind is None:
        raise ConfigError(
            "not an --obs-trace file (no 'traceEvents'), not a campaign "
            "journal (no 'evaluations'), not a telemetry report (no "
            "'probes'), and not an events.jsonl log")
    return kind, document, warnings
