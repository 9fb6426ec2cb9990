"""Tests for JSON result export."""

import json
import os

from repro.eval.export import export_all
from repro.eval.fig3 import run_fig3
from repro.eval.fig6 import run_fig6
from repro.eval.table1 import run_table1
from repro.eval.table2 import run_table2

#: ``export_all(DIR, num_cores=8, fig5_cores=16, updates_per_core=2)``
#: files and each experiment's ``render()`` text at that scale.
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "paper")


def test_fig3_schema():
    result = run_fig3(num_cores=8, bins_list=[1, 4], updates_per_core=3)
    document = result.to_dict()
    assert document["experiment"] == "fig3"
    assert document["parameters"]["bins"] == [1, 4]
    assert set(document["series"]) == {
        "Atomic Add", "LRSCwait_ideal", "LRSCwait_half", "LRSCwait_1",
        "Colibri", "LRSC"}
    assert all(len(v) == 2 for v in document["series"].values())
    json.dumps(document)  # must be JSON-serializable


def test_fig6_schema():
    result = run_fig6(max_cores=8, core_counts=[1, 8], ops_per_core=6)
    document = result.to_dict()
    assert document["fairness"]["Colibri"][0] >= 0
    assert document["headline"]["colibri_over_lrsc_at_max"] > 0
    json.dumps(document)


def test_table1_schema():
    document = run_table1().to_dict()
    assert len(document["rows"]) == 7
    assert document["headline"]["max_relative_error"] < 0.02
    json.dumps(document)


def test_table2_schema():
    document = run_table2(num_cores=8, updates_per_core=3).to_dict()
    assert {row["access"] for row in document["rows"]} == {
        "Atomic Add", "Colibri", "LRSC", "Atomic Add lock"}
    json.dumps(document)


def test_export_all_writes_index_and_files(tmp_path):
    """Every file is byte-identical to the one recorded before the
    experiment list moved into the paper manifest."""
    index = export_all(str(tmp_path), num_cores=8, fig5_cores=16,
                       updates_per_core=2)
    assert set(index) == {"table1", "table2", "fig3", "fig4", "fig5",
                          "fig6"}
    for file_name in list(index.values()) + ["index.json"]:
        with open(os.path.join(str(tmp_path), file_name), "rb") as handle:
            written = handle.read()
        with open(os.path.join(GOLDEN, file_name), "rb") as handle:
            assert written == handle.read(), file_name
        assert "experiment" in json.loads(written) \
            or file_name == "index.json"
    with open(os.path.join(str(tmp_path), "index.json")) as handle:
        assert json.load(handle) == index
