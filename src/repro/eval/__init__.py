"""Evaluation harness: one runner per table and figure of the paper,
listed once in the paper manifest (:mod:`repro.eval.paper`)."""

from .analysis import (
    bank_pressure,
    core_time_breakdown,
    message_breakdown,
    summarize,
)
from .export import export_all
from .fig3 import run_fig3
from .fig4 import run_fig4
from .fig5 import Fig5Result, run_fig5
from .fig6 import Fig6Result, QueuePoint, queue_spec, run_fig6
from .harness import (
    FIG3_SERIES,
    FIG4_SERIES,
    BinSweepResult,
    HistogramPoint,
    SeriesSpec,
    TABLE2_SERIES,
    histogram_spec,
)
from .paper import EXPERIMENTS, Scale
from .reporting import render_series, render_table
from .runner import ResultCache, jobs_argument, resolve_jobs
from .table1 import Table1Result, run_table1, scaling_table
from .table2 import Table2Result, run_table2, table2_specs

__all__ = [
    "bank_pressure",
    "core_time_breakdown",
    "message_breakdown",
    "summarize",
    "export_all",
    "run_fig3",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "QueuePoint",
    "queue_spec",
    "run_fig6",
    "FIG3_SERIES",
    "FIG4_SERIES",
    "BinSweepResult",
    "HistogramPoint",
    "SeriesSpec",
    "TABLE2_SERIES",
    "histogram_spec",
    "EXPERIMENTS",
    "Scale",
    "table2_specs",
    "render_series",
    "render_table",
    "ResultCache",
    "jobs_argument",
    "resolve_jobs",
    "Table1Result",
    "run_table1",
    "scaling_table",
    "Table2Result",
    "run_table2",
]
