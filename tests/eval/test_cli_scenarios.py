"""CLI tests for the scenario subcommands: run, list, sweep."""

import pytest

from repro.cli import main
from repro.scenarios import list_workloads


def run_cli(capsys, argv, expect_code=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect_code, captured.out
    return captured.out


def test_list_shows_all_registered_scenarios(capsys):
    out = run_cli(capsys, ["list"])
    for name, _workload in list_workloads():
        assert name in out
    assert "registered scenarios" in out


def test_list_names_is_script_friendly(capsys):
    out = run_cli(capsys, ["list", "--names"])
    names = out.strip().splitlines()
    assert names == sorted(name for name, _w in list_workloads())


def test_list_variants_table(capsys):
    from repro.memory import list_variants
    out = run_cli(capsys, ["list", "--variants"])
    for name, plugin in list_variants():
        assert name in out
        assert plugin.native_method in out
    assert "registered atomic-memory variants" in out
    assert "kGE/core" in out                 # area-cost-model column


def test_list_variants_names_emits_runnable_strings(capsys):
    from repro.memory import list_variants
    from repro.scenarios.spec import parse_variant
    out = run_cli(capsys, ["list", "--variants", "--names"])
    lines = out.strip().splitlines()
    # One line per registered variant, each a parseable variant string
    # (required parameters filled: lrscwait lists as lrscwait:8).
    assert len(lines) == len(list_variants())
    assert "lrscwait:8" in lines
    for line in lines:
        parse_variant(line, 16)              # must not raise


def test_run_registered_extra_variant(capsys):
    out = run_cli(capsys, ["run", "histogram", "--smoke",
                           "--variant", "ticket:2"])
    assert "ticket:2" in out


def test_run_unknown_variant_exits_2(capsys):
    out = run_cli(capsys, ["run", "histogram", "--variant", "warp"],
                  expect_code=2)
    assert "no atomic-memory variant registered" in out


def test_run_bad_variant_param_exits_2(capsys):
    out = run_cli(capsys, ["run", "histogram",
                           "--variant", "ticket:addresses=0"],
                  expect_code=2)
    assert "addresses" in out


@pytest.mark.parametrize("argv, message", [
    (["queue", "--variant", "lrsc"],
     "variant 'lrsc' cannot run method 'wait'; it supports: lrsc, lock"),
    (["queue", "--set", "method=bogus"],
     "unknown method 'bogus'; accepted: lrsc, wait, lock"),
    (["queue", "--set", "method=native"],
     "unknown method 'native'; accepted: lrsc, wait, lock"),
    (["histogram", "--variant", "amo", "--set", "method=lrsc"],
     "variant 'amo' cannot run method 'lrsc'; it supports: amo, lock"),
    (["histogram_zipf", "--variant", "lrsc", "--set", "method=wait"],
     "variant 'lrsc' cannot run method 'wait'; it supports: amo, lrsc"),
    (["interference", "--variant", "colibri", "--set", "method=lrsc"],
     "variant 'colibri' cannot run method 'lrsc'; it supports: amo, wait"),
    (["interference", "--set", "method=bogus"],
     "unknown method 'bogus'; accepted: amo, lrsc, wait"),
], ids=["queue-wait-on-lrsc", "queue-bogus", "queue-native",
        "histogram-lrsc-on-amo", "zipf-wait-on-lrsc",
        "interference-lrsc-on-colibri", "interference-bogus"])
def test_run_rejects_a_method_the_variant_cannot_run(capsys, argv,
                                                     message):
    """Rejected at load, before any simulation: a config error with
    exit code 2, not a mid-run protocol violation or a traceback."""
    code = main(["run", *argv, "--cores", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.strip() == f"repro: {message}"
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("workers", [64, 0])
def test_run_rejects_out_of_range_interference_workers(capsys, workers):
    """Checked before either machine of the paired run is built."""
    code = main(["run", "interference", "--cores", "16",
                 "--set", f"workers={workers}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.strip() == (
        f"repro: workers={workers} must be an int in 1..16 "
        f"(or None for all cores)")
    assert "Traceback" not in captured.out + captured.err


def test_sweep_variant_param_axis(capsys):
    out = run_cli(capsys, ["sweep", "histogram", "--cores", "8",
                           "--set", "updates_per_core=2",
                           "--variant", "lrscwait:1",
                           "--axis", "variant.queue_slots=1,ideal"])
    assert "variant.queue_slots" in out
    assert "ideal" in out


def test_run_with_set_overrides(capsys):
    out = run_cli(capsys, ["run", "histogram", "--cores", "8",
                           "--set", "bins=2", "--set", "updates_per_core=2"])
    assert "scenario: histogram" in out
    assert "spec hash" in out
    assert "throughput" in out


def test_run_smoke_every_registered_scenario(capsys):
    """The CI smoke contract: every registry entry runs via the CLI."""
    for name, _workload in list_workloads():
        out = run_cli(capsys, ["run", name, "--smoke"])
        assert f"scenario: {name}" in out


def test_run_show_spec_prints_json(capsys):
    out = run_cli(capsys, ["run", "histogram", "--smoke", "--show-spec"])
    assert '"workload":"histogram"' in out


def test_run_unknown_scenario_fails_cleanly(capsys):
    out = run_cli(capsys, ["run", "warp_drive"], expect_code=2)
    assert "no workload registered" in out


def test_run_unknown_param_fails_cleanly(capsys):
    out = run_cli(capsys, ["run", "histogram", "--set", "bogus=1"],
                  expect_code=2)
    assert "bogus" in out


def test_run_malformed_set_rejected():
    with pytest.raises(SystemExit):
        main(["run", "histogram", "--set", "bins"])


def test_sweep_single_axis(capsys):
    out = run_cli(capsys, ["sweep", "histogram", "--cores", "8",
                           "--set", "updates_per_core=2",
                           "--axis", "bins=1,4"])
    assert "sweep: histogram" in out
    assert "bins" in out and "throughput" in out
    # one row per axis value
    assert len([line for line in out.splitlines()
                if line.strip() and line.strip()[0].isdigit()]) == 2


def test_sweep_cartesian_axes(capsys):
    out = run_cli(capsys, ["sweep", "histogram", "--cores", "8",
                           "--set", "updates_per_core=2",
                           "--axis", "bins=1,2", "--axis", "seed=0,1"])
    rows = [line for line in out.splitlines()
            if line.strip() and line.strip()[0].isdigit()]
    assert len(rows) == 4


def test_sweep_with_cache(capsys, tmp_path):
    argv = ["sweep", "histogram", "--cores", "8",
            "--set", "updates_per_core=2", "--axis", "bins=1,2",
            "--cache-dir", str(tmp_path)]
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second


def test_sweep_requires_axis():
    with pytest.raises(SystemExit):
        main(["sweep", "histogram"])


def test_sweep_exports_json(capsys, tmp_path):
    import json
    out = run_cli(capsys, ["sweep", "histogram", "--cores", "8",
                           "--set", "updates_per_core=2",
                           "--axis", "bins=1,4",
                           "--out", str(tmp_path)])
    assert "exported" in out
    with open(tmp_path / "sweep.json") as stream:
        document = json.load(stream)
    assert document["experiment"] == "sweep"
    assert document["parameters"]["workload"] == "histogram"
    assert document["parameters"]["axes"] == {"bins": [1, 4]}
    assert len(document["rows"]) == 2
    assert {row["bins"] for row in document["rows"]} == {1, 4}
    assert all("cycles" in row and "throughput" in row
               for row in document["rows"])


def test_sweep_exports_csv(capsys, tmp_path):
    import csv
    run_cli(capsys, ["sweep", "histogram", "--cores", "8",
                     "--set", "updates_per_core=2",
                     "--axis", "bins=1,4",
                     "--out", str(tmp_path), "--format", "csv"])
    with open(tmp_path / "sweep.csv", newline="") as stream:
        rows = list(csv.reader(stream))
    assert rows[0][0] == "bins"
    assert "cycles" in rows[0]
    assert len(rows) == 3                    # header + 2 points


def test_sweep_format_needs_out(capsys):
    out = run_cli(capsys, ["sweep", "histogram", "--axis", "bins=1",
                           "--format", "csv"], expect_code=2)
    assert "--out" in out


def test_run_variant_flag_uses_spec_grammar(capsys):
    out = run_cli(capsys, ["run", "histogram", "--smoke",
                           "--variant", "lrscwait:half"])
    assert "lrscwait:half" in out
