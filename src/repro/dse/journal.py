"""The campaign journal: durable, resumable search state.

One JSON document per campaign (``journal.json`` in the campaign
directory) recording the campaign's full identity — base spec, search
space, sampler, objectives, budget, seed — plus one record per
evaluation in execution order.  The journal is rewritten atomically
after every batch, so a killed campaign loses at most the batch in
flight; ``repro explore --resume DIR`` replays the records instead of
re-simulating them (see :mod:`repro.dse.campaign`).

The file is always ``json.dumps(document, indent=2, sort_keys=True)``
plus a newline, byte for byte.  A :class:`JournalWriter` produces those
bytes without re-encoding the whole document per checkpoint: each
evaluation record (and the campaign block) is encoded once, when it
first lands, and later rewrites splice the cached text.  A campaign's
checkpoints therefore cost linear, not quadratic, encoding work.

Layout is validated by :mod:`repro.dse.schema`; ``repro frontier``
renders rankings and Pareto frontiers from the journal alone.
"""

from __future__ import annotations

import json
import os

from ..engine.errors import ConfigError
from .schema import SchemaError, validate_journal

#: Bump when the journal layout changes incompatibly.  Version 2 added
#: per-evaluation ``wall_ms``/``cache_hit`` time attribution; version-1
#: journals carry neither but stay valid and resumable (the fields
#: default on replay), hence :data:`COMPATIBLE_VERSIONS`.
JOURNAL_VERSION = 2

#: Journal versions this code can validate and resume.
COMPATIBLE_VERSIONS = (1, 2)

#: File name inside a campaign directory.
JOURNAL_NAME = "journal.json"


def journal_path(directory: str) -> str:
    """The journal file of a campaign directory."""
    return os.path.join(directory, JOURNAL_NAME)


class JournalWriter:
    """Atomic journal rewrites that encode each record only once.

    Every :meth:`write` produces exactly the bytes of
    ``json.dumps(document, indent=2, sort_keys=True) + "\n"``.  The
    writer remembers the encoded text of each evaluation record and of
    the ``campaign`` block, keyed by object identity: a record still
    present (``is``) at the same position reuses its text, a replaced
    one is re-encoded.  Written records and campaign blocks are
    therefore treated as immutable — replace them, never mutate them in
    place.  The other top-level fields are small and encoded per write.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._records: list = []      # records of the last write ...
        self._fragments: list = []    # ... and their encoded text
        self._campaign = None         # (campaign block, its text)

    def write(self, document: dict) -> str:
        """Atomically write ``document``; returns the path.

        Atomic replace means a kill mid-write leaves the previous
        journal intact — resume never sees a torn file.
        """
        pieces = []
        separator = "{\n  "
        for key in sorted(document):
            value = document[key]
            pieces += (separator, json.dumps(key), ": ")
            separator = ",\n  "
            if key == "evaluations" and isinstance(value, list):
                pieces += self._evaluations(value)
            elif key == "campaign":
                if self._campaign is None or self._campaign[0] is not value:
                    self._campaign = (value, _encode(value, 1))
                pieces.append(self._campaign[1])
            else:
                pieces.append(_encode(value, 1))
        pieces.append("\n}\n" if pieces else "{}\n")
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as stream:
            # Pieces, not one joined string: the journal is not copied
            # again in memory just to be written.
            stream.writelines(pieces)
        os.replace(tmp, self.path)
        return self.path

    def _evaluations(self, records: list) -> list:
        """The ``evaluations`` array as text pieces, reusing the text of
        known records."""
        known, fragments = self._records, self._fragments
        encoded = [fragments[position]
                   if position < len(known) and known[position] is record
                   else "    " + _encode(record, 2)
                   for position, record in enumerate(records)]
        self._records, self._fragments = list(records), encoded
        if not encoded:
            return ["[]"]
        return ["[\n", ",\n".join(encoded), "\n  ]"]


def _encode(value, depth: int) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it
    ``depth`` levels down.  Encoded JSON strings never contain a raw
    newline, so re-indenting every line is exact."""
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + "  " * depth)


def write_journal(target, document: dict) -> str:
    """Atomically write ``document``; returns the path.

    ``target`` is a :class:`JournalWriter` — whose cached record text
    makes repeated checkpoints of a growing journal cheap — or a plain
    path for a one-shot write.
    """
    if not isinstance(target, JournalWriter):
        target = JournalWriter(target)
    return target.write(document)


def load_journal(path: str) -> dict:
    """Read and schema-validate a journal file."""
    try:
        with open(path) as stream:
            data = json.load(stream)
    except OSError as exc:
        raise ConfigError(f"cannot read journal {path!r}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"journal {path!r} is not valid JSON: {exc}")
    try:
        validate_journal(data)
    except SchemaError as exc:
        raise ConfigError(f"journal {path!r} is malformed: {exc}")
    return data


def load_journal_tolerant(path: str):
    """Best-effort journal read for monitoring: ``(data, warnings)``.

    ``repro status`` must render something useful from whatever a
    killed campaign left behind, so unlike :func:`load_journal` this
    salvages a truncated document (largest valid JSON prefix) and skips
    schema validation — evaluation records are consumed defensively by
    the caller.  Unreadable or unsalvageable files still raise
    :class:`~repro.engine.errors.ConfigError`.
    """
    from ..obs.artifacts import load_artifact
    kind, data, warnings = load_artifact(path, tolerant=True)
    if kind != "journal":
        raise ConfigError(f"{path!r} is not a campaign journal "
                          f"(detected: {kind})")
    return data, warnings


def new_journal(campaign: dict) -> dict:
    """A fresh (no evaluations yet) journal document."""
    return {
        "version": JOURNAL_VERSION,
        "status": "partial",
        "paid": 0,
        "campaign": campaign,
        "evaluations": [],
        "best": None,
        "frontier": [],
    }


def check_resumable(journal: dict, campaign: dict) -> None:
    """Reject resuming under a different campaign configuration.

    A journal replays deterministically only when space, sampler,
    objectives, seed and base spec all match; resuming with anything
    else changed would silently mix two different searches.  The one
    deliberate exception is ``budget``: a budget-exhausted campaign is
    *meant* to be resumed with a larger budget (replay is positional
    and hash-checked, so a budget-sensitive custom sampler that
    proposes differently still fails loudly rather than mixing runs).
    """
    if journal.get("version") not in COMPATIBLE_VERSIONS:
        raise ConfigError(
            f"journal version {journal.get('version')!r} is not among "
            f"the versions this code resumes {COMPATIBLE_VERSIONS}")
    recorded = journal["campaign"]
    for key in sorted(set(recorded) | set(campaign)):
        if key != "budget" and recorded.get(key) != campaign.get(key):
            raise ConfigError(
                f"cannot resume: journal was written for {key}="
                f"{recorded.get(key)!r}, this invocation has "
                f"{campaign.get(key)!r} — rerun with matching options "
                f"or start a fresh --out directory")
