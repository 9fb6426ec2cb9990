"""Figure/table outputs must be bit-identical through the scenario API.

The golden numbers below were captured on the pre-scenario codebase
(PR 1) by running the then hand-wired experiment functions directly.
The same entry points now build :class:`ScenarioSpec`\\ s and execute
through the registry; any drift in these values means the refactor
changed the simulated experiments, not just their plumbing.

One cached point per figure plus the full Table II, all at CI scale.
"""

from repro.arch.config import SystemConfig
from repro.eval.fig3 import point_spec as fig3_point_spec
from repro.eval.fig4 import point_spec as fig4_point_spec
from repro.eval.fig6 import queue_spec
from repro.eval.table2 import run_table2
from repro.memory.variants import VariantSpec
from repro.scenarios import run_scenario
from repro.workloads.interference import run_interference


def test_fig3_point_bit_identical():
    spec = fig3_point_spec("LRSCwait_ideal", 4, num_cores=8,
                           updates_per_core=4, seed=0)
    point = run_scenario(spec).point
    assert point.label == "LRSCwait_ideal"
    assert point.cycles == 80
    assert point.throughput == 0.4
    assert point.messages == 128
    assert point.sc_failures == 0
    assert point.wait_rejections == 0
    assert point.sleep_cycles == 279
    assert point.active_cycles == 96
    assert point.pj_per_op == 28.3828125


def test_fig4_point_bit_identical():
    spec = fig4_point_spec("LRSC lock", 2, num_cores=8,
                           updates_per_core=3, seed=0)
    point = run_scenario(spec).point
    assert point.label == "LRSC lock"
    assert point.cycles == 553
    assert point.throughput == 0.0433996383363472
    assert point.messages == 356
    assert point.pj_per_op == 169.61249999999998


def test_fig5_point_bit_identical():
    result = run_interference(SystemConfig.scaled(16), VariantSpec.lrsc(),
                              "lrsc", 4, 1, matmul_dim=6, seed=0)
    assert result.baseline_cycles == 1606
    assert result.interfered_cycles == 1616
    assert result.relative_throughput == 0.9938118811881188


def test_fig6_point_bit_identical():
    point = run_scenario(queue_spec("Colibri", 8, 4, 8, seed=0)).point
    assert point.label == "Colibri"
    assert point.cycles == 209
    assert point.throughput == 0.15311004784688995
    assert point.min_core_rate == 0.03827751196172249
    assert point.max_core_rate == 0.046242774566473986
    assert point.jain_fairness == 0.9946939634406936


def test_table2_bit_identical():
    table = run_table2(num_cores=8, updates_per_core=3)
    assert table.rows == [
        ("Atomic Add", 6.921290322580647, 14.9, -63.99335447817551),
        ("Colibri", 3.4050857142857147, 41.38125, 0.0),
        ("LRSC", 4.012133072407045, 142.375, 244.05678900468206),
        ("Atomic Add lock", 3.817384615384616, 172.3125,
         316.40235613955593),
    ]
