"""The paper manifest: one ordered list of the six experiments."""

import os

from repro.eval import paper
from repro.eval.paper import CI, EXPERIMENTS, FULL, Scale

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "paper")


def test_manifest_lists_the_papers_experiments_in_order():
    assert list(EXPERIMENTS) == ["table1", "table2", "fig3", "fig4",
                                 "fig5", "fig6"]


def test_scales():
    assert CI == Scale(cores=64, updates_per_core=8, fig5_cores=128)
    assert FULL == Scale(cores=256, updates_per_core=8, fig5_cores=256)
    assert Scale.at(8, 2, 16) == Scale(8, 2, 16)
    assert Scale.at(8).fig5_cores == paper.FIG5_MIN_CORES


def test_renders_match_goldens():
    """Each entry's ``render()`` at a tiny scale is byte-identical to
    the text recorded before the manifest existed."""
    scale = Scale.at(8, updates_per_core=2, fig5_cores=16)
    for name, run in EXPERIMENTS.items():
        with open(os.path.join(GOLDEN, f"{name}.txt"),
                  encoding="utf-8") as handle:
            assert run(scale, jobs=1, cache=None).render() + "\n" \
                == handle.read(), name
