"""JournalWriter: byte-identical checkpoints, each record encoded once."""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

import repro.dse.journal as journal_module
from repro.dse import (
    Campaign,
    Evaluation,
    JournalWriter,
    SearchSpace,
    journal_path,
    parse_objectives,
    write_journal,
)
from repro.dse.journal import new_journal
from repro.scenarios import default_spec


def reference_bytes(document) -> bytes:
    """What every journal write must put on disk."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()


# -- journal-shaped documents -------------------------------------------------

#: Escapes, control characters and non-ASCII text all round-trip through
#: ``ensure_ascii`` escapes, never through a raw newline.
TEXT = st.text(max_size=8) | st.sampled_from(
    ["", "a\nb", "tab\there", 'quote"\\slash', "é中\U0001f600",
     "\x00\x1f\x7f", " "])
FLOATS = st.sampled_from([-0.0, 0.0, 1e-7, 1e16, -1.5, 2.5e-300, 1e300]) \
    | st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) \
    | FLOATS | TEXT
JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=8)

RECORDS = st.fixed_dictionaries({
    "index": st.integers(0, 10 ** 6),
    "batch": st.integers(0, 100),
    "rung": st.integers(0, 3),
    "fidelity": st.sampled_from(["full", "smoke"]),
    "overrides": st.dictionaries(
        TEXT, SCALARS | st.dictionaries(TEXT, JSON, max_size=2),
        max_size=3),
    "spec": st.dictionaries(TEXT, JSON, max_size=3),
    "spec_hash": st.text("0123456789abcdef", min_size=1, max_size=12),
    "cached": st.booleans(),
    "objectives": st.dictionaries(TEXT, FLOATS, max_size=2),
    "scalars": st.dictionaries(TEXT, SCALARS, max_size=3),
    "wall_ms": FLOATS,
    "cache_hit": st.booleans(),
})
HEADERS = st.dictionaries(TEXT, JSON, max_size=4) | SCALARS

#: One mutation of the document between two writes.  Records and the
#: campaign block are only ever replaced, never mutated in place — the
#: contract a JournalWriter relies on.
OPERATIONS = st.one_of(
    st.tuples(st.just("append"), RECORDS),
    st.tuples(st.just("replace"), st.integers(0, 50), RECORDS),
    st.tuples(st.just("truncate"), st.integers(0, 50)),
    st.tuples(st.just("campaign"), HEADERS),
    st.tuples(st.just("best"), st.none() | st.integers(0, 50)),
    st.tuples(st.just("frontier"), st.lists(st.integers(0, 50),
                                            max_size=4)),
    st.tuples(st.just("paid"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("status"), st.sampled_from(
        ["partial", "budget", "complete"])),
)


def apply(document: dict, operation) -> None:
    kind, *args = operation
    records = document["evaluations"]
    if kind == "append":
        records.append(args[0])
    elif kind == "replace":
        if records:
            records[args[0] % len(records)] = args[1]
    elif kind == "truncate":
        del records[args[0]:]
    else:
        document[kind] = args[0]


@settings(max_examples=150, deadline=None)
@given(header=HEADERS, initial=st.lists(RECORDS, max_size=3),
       operations=st.lists(OPERATIONS, max_size=12),
       fresh_list=st.booleans())
def test_every_write_matches_the_full_encode(header, initial, operations,
                                             fresh_list):
    document = new_journal(header)
    document["evaluations"].extend(initial)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "journal.json")
        writer = JournalWriter(path)
        assert writer.write(document) == path
        with open(path, "rb") as stream:
            assert stream.read() == reference_bytes(document)
        for operation in operations:
            apply(document, operation)
            if fresh_list:
                # A rebuilt list holding the same record objects.
                document["evaluations"] = list(document["evaluations"])
            writer.write(document)
            with open(path, "rb") as stream:
                assert stream.read() == reference_bytes(document)
        assert not os.path.exists(path + ".tmp")


@settings(max_examples=100, deadline=None)
@given(document=st.dictionaries(
    TEXT | st.sampled_from(["campaign", "evaluations"]), JSON, max_size=4))
def test_one_shot_write_encodes_any_document(document):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "nested", "journal.json")
        assert write_journal(path, document) == path
        with open(path, "rb") as stream:
            assert stream.read() == reference_bytes(document)


def test_write_journal_reuses_a_writer(tmp_path):
    path = journal_path(str(tmp_path))
    writer = JournalWriter(path)
    document = new_journal({"workload": "histogram"})
    assert write_journal(writer, document) == path
    document["evaluations"].append({"index": 0})
    assert write_journal(writer, document) == path
    with open(path, "rb") as stream:
        assert stream.read() == reference_bytes(document)


# -- linearity ----------------------------------------------------------------


def test_campaign_encodes_each_record_exactly_once(tmp_path, monkeypatch):
    """Across a multi-batch campaign every record and the campaign block
    are encoded once, however many checkpoints follow."""
    encoded = []
    original = journal_module._encode

    def counting(value, depth):
        encoded.append(value)
        return original(value, depth)

    monkeypatch.setattr(journal_module, "_encode", counting)
    writes = []
    original_write = JournalWriter.write

    def counting_write(self, document):
        writes.append(len(document["evaluations"]))
        return original_write(self, document)

    monkeypatch.setattr(JournalWriter, "write", counting_write)
    space = SearchSpace.from_axes({"bins": [1, 2, 4, 8],
                                   "variant": ["lrsc", "colibri"]})
    journal_file = journal_path(str(tmp_path))
    result = Campaign(
        base=default_spec("histogram", num_cores=8).with_params(
            updates_per_core=2),
        space=space, sampler="grid",
        sampler_options={"batch_size": 3},
        objectives=parse_objectives(["min:cycles", "max:throughput"]),
        budget=space.grid_size(), journal_file=journal_file).run()
    records = result.journal["evaluations"]
    assert writes == [3, 6, 8, 8]
    assert len(records) == space.grid_size()
    assert sum(value is result.journal["campaign"]
               for value in encoded) == 1
    for record in records:
        assert sum(value is record for value in encoded) == 1
    with open(journal_file, "rb") as stream:
        assert stream.read() == reference_bytes(result.journal)


def test_result_queries_reuse_the_journal_records(monkeypatch):
    result = Campaign(
        base=default_spec("histogram", num_cores=8).with_params(
            updates_per_core=2),
        space=SearchSpace.from_axes({"bins": [1, 2],
                                     "variant": ["lrsc", "colibri"]}),
        sampler="grid",
        objectives=parse_objectives(["min:cycles", "max:throughput"]),
        budget=4).run()

    def rebuilt(_self):
        raise AssertionError("record rebuilt after the campaign ran")

    monkeypatch.setattr(Evaluation, "to_record", rebuilt)
    assert result.best().index == result.journal["best"]
    assert [e.index for e in result.frontier()] \
        == result.journal["frontier"]
    assert len(result.ranking()) == 4
