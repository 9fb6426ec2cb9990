"""Journal persistence and schema validation."""

import json

import pytest

from repro.dse import (
    Campaign,
    SearchSpace,
    load_journal,
    parse_objectives,
    validate_journal,
)
from repro.dse.schema import SchemaError
from repro.engine.errors import ConfigError
from repro.obs.schema import main as schema_main
from repro.scenarios import default_spec


@pytest.fixture(scope="module")
def journal():
    campaign = Campaign(
        base=default_spec("histogram", num_cores=8).with_params(
            updates_per_core=2),
        space=SearchSpace.from_axes({"bins": [1, 2]}),
        sampler="grid",
        objectives=parse_objectives(["min:cycles", "max:throughput"]),
        budget=4)
    return campaign.run().journal


def test_real_journal_validates(journal):
    validate_journal(journal)


def test_schema_rejects_missing_top_level(journal):
    for key in ("version", "status", "paid", "campaign", "evaluations"):
        broken = dict(journal)
        del broken[key]
        with pytest.raises(SchemaError, match=key):
            validate_journal(broken)


def test_schema_rejects_bad_status(journal):
    broken = dict(journal, status="exploded")
    with pytest.raises(SchemaError, match="status"):
        validate_journal(broken)


def test_schema_rejects_out_of_order_indices(journal):
    broken = json.loads(json.dumps(journal))
    broken["evaluations"][0]["index"] = 5
    with pytest.raises(SchemaError, match="out of order"):
        validate_journal(broken)


def test_schema_rejects_missing_objective_value(journal):
    broken = json.loads(json.dumps(journal))
    del broken["evaluations"][0]["objectives"]["cycles"]
    with pytest.raises(SchemaError, match="cycles"):
        validate_journal(broken)


def test_schema_rejects_bad_spec_hash_and_fidelity(journal):
    broken = json.loads(json.dumps(journal))
    broken["evaluations"][0]["spec_hash"] = "abc"
    with pytest.raises(SchemaError, match="spec_hash"):
        validate_journal(broken)
    broken = json.loads(json.dumps(journal))
    broken["evaluations"][0]["fidelity"] = "warp"
    with pytest.raises(SchemaError, match="fidelity"):
        validate_journal(broken)


def test_schema_rejects_dangling_frontier_index(journal):
    broken = json.loads(json.dumps(journal))
    broken["frontier"] = [99]
    with pytest.raises(SchemaError, match="99"):
        validate_journal(broken)


def test_load_journal_reports_bad_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_journal(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_journal(str(bad))
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{}")
    with pytest.raises(ConfigError, match="malformed"):
        load_journal(str(malformed))


def test_schema_cli_validates_and_rejects(tmp_path, journal, capsys):
    good = tmp_path / "journal.json"
    good.write_text(json.dumps(journal))
    assert schema_main([str(good)]) == 0
    assert "ok" in capsys.readouterr().out
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(dict(journal, status="exploded")))
    assert schema_main([str(bad)]) == 2
    assert "status" in capsys.readouterr().out
    assert schema_main([]) == 2


# -- journal v1 compatibility (pre-wall_ms/cache_hit journals) -----------------


def v1_journal(journal):
    """A journal as written before the observability fields existed."""
    old = json.loads(json.dumps(journal))
    old["version"] = 1
    for record in old["evaluations"]:
        record.pop("wall_ms", None)
        record.pop("cache_hit", None)
    return old


def test_current_journal_is_version_2_with_wall_attribution(journal):
    assert journal["version"] == 2
    for record in journal["evaluations"]:
        assert "wall_ms" in record
        assert isinstance(record["cache_hit"], bool)


def test_v1_journal_still_validates(journal):
    validate_journal(v1_journal(journal))


def test_v1_journal_is_still_resumable(journal):
    from repro.dse.journal import check_resumable
    old = v1_journal(journal)
    check_resumable(old, old["campaign"])


def test_unknown_journal_version_rejected(journal):
    from repro.dse.journal import check_resumable
    future = dict(journal, version=3)
    with pytest.raises(SchemaError, match="version"):
        validate_journal(future)
    with pytest.raises(ConfigError, match="version"):
        check_resumable(future, future["campaign"])


def test_schema_rejects_bad_wall_ms_and_cache_hit(journal):
    broken = json.loads(json.dumps(journal))
    broken["evaluations"][0]["wall_ms"] = -1.0
    with pytest.raises(SchemaError, match="wall_ms"):
        validate_journal(broken)
    broken = json.loads(json.dumps(journal))
    broken["evaluations"][0]["wall_ms"] = True
    with pytest.raises(SchemaError, match="wall_ms"):
        validate_journal(broken)
    broken = json.loads(json.dumps(journal))
    broken["evaluations"][0]["cache_hit"] = "yes"
    with pytest.raises(SchemaError, match="cache_hit"):
        validate_journal(broken)
