"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.eval import paper


def run_cli(capsys, argv, expect_code=0):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect_code, captured.out
    return captured.out


def test_verb_set_is_pinned():
    """One verb per concern: a new top-level command is a deliberate
    change to this list."""
    sub = next(action for action in build_parser()._actions
               if action.dest == "command")
    assert list(sub.choices) == [
        "run", "list", "trace", "sweep", "explore", "frontier", "cache",
        "area", "reproduce", "obs", "status"]


def scalars(out):
    """``repro run``'s field/value table as a dict, spec rows dropped."""
    rows = out.split("-\n", 1)[1].splitlines()
    fields = dict(row.split(None, 1) for row in rows)
    return {key: value for key, value in fields.items()
            if key not in ("scenario", "spec")}


HISTOGRAM = ["run", "histogram", "--cores", "8", "--set", "bins=2",
             "--set", "updates_per_core=2"]


def test_histogram_command_default(capsys):
    out = run_cli(capsys, HISTOGRAM)
    assert "histogram | 8 cores | colibri | seed 0 | " \
           "bins=2, updates_per_core=2" in out
    assert "throughput" in out and "pj_per_op" in out


# Explicit ids keep these cases' test names stable.
@pytest.mark.parametrize("variant", [
    "amo", "lrscwait:ideal", "lrsc", "lrsc_bank", "lrsc_table",
], ids=["amo-AtomicAdd/amo", "ideal-LRSCwait_ideal/wait", "lrsc-LRSC/lrsc",
        "lrsc-bank-LRSC_bank/lrsc", "lrsc-table-LRSC_table/lrsc"])
def test_histogram_variants(capsys, variant):
    out = run_cli(capsys, HISTOGRAM + ["--variant", variant])
    assert f"histogram | 8 cores | {variant} | seed 0 | " \
           f"bins=2, updates_per_core=2" in out


def test_histogram_lock_method(capsys):
    out = run_cli(capsys, HISTOGRAM + ["--variant", "colibri",
                                       "--set", "method=lock",
                                       "--set", "lock=mcs"])
    assert "colibri | seed 0 | bins=2, lock=mcs, method=lock" in out


def test_queue_command(capsys):
    out = run_cli(capsys, ["run", "queue", "--cores", "8",
                           "--variant", "colibri", "--set", "method=wait",
                           "--set", "ops_per_core=6"])
    assert "queue | 8 cores | colibri | seed 0 | method=wait" in out
    assert "jain_fairness" in out


def test_interference_command(capsys):
    out = run_cli(capsys, ["run", "interference", "--cores", "16",
                           "--set", "workers=4", "--set", "bins=1",
                           "--variant", "colibri"])
    assert "relative_throughput" in out
    assert "interference | 16 cores | colibri" in out


def test_interference_pollers_default_to_the_variant_method(capsys):
    """``method`` defaults to ``native``, as for the histogram: the
    pollers of a Colibri run use ``wait``."""
    argv = ["run", "interference", "--smoke", "--variant", "colibri"]
    native = scalars(run_cli(capsys, argv))
    assert native == scalars(run_cli(capsys, argv + ["--set",
                                                     "method=wait"]))


def test_area_command(capsys):
    out = run_cli(capsys, ["area"])
    assert "Table I" in out and "paper kGE" in out
    assert "O(n^2)" in out


def test_energy_command(capsys):
    """Table II is the manifest's ``table2`` entry, nothing else."""
    out = run_cli(capsys, ["reproduce", "--only", "table2"])
    assert "Table II" in out and "Colibri" in out
    assert out == paper.EXPERIMENTS["table2"](paper.CI, 1, None).render() \
        + "\n"


def test_reproduce_only_prints_one_section(capsys):
    out = run_cli(capsys, ["reproduce", "--only", "table1"])
    assert out == paper.EXPERIMENTS["table1"](paper.CI, 1, None).render() \
        + "\n"


def test_reproduce_only_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--only", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_seed_changes_timing_not_correctness(capsys):
    argv = ["run", "histogram", "--cores", "8", "--set", "bins=2",
            "--set", "updates_per_core=3"]
    run_a = scalars(run_cli(capsys, argv + ["--seed", "1"]))
    run_b = scalars(run_cli(capsys, argv + ["--seed", "2"]))
    assert run_a["cycles"] != run_b["cycles"]  # different interleavings
