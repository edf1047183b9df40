"""Experiment drivers reproducing every table and figure of the paper."""

from repro.experiments.executor import (
    ProcessExecutor,
    SerialExecutor,
    ShardResult,
    ShardTask,
    execute_shard,
)
from repro.experiments.figure2 import Figure2, compute_figure2, render_figure2
from repro.experiments.figure3 import Figure3, compute_figure3, render_figure3
from repro.experiments.hybrid import (
    HybridAnalysis,
    HybridCell,
    compute_hybrid,
    render_figure4,
    render_table2,
)
from repro.experiments.progress import (
    ConsoleListener,
    NullListener,
    ProgressListener,
)
from repro.experiments.report import StudyReport, generate_report
from repro.experiments.runner import (
    ALL_TECHNIQUES,
    MULTI_ROUND,
    SINGLE_ROUND,
    TRADITIONAL,
    ResultMatrix,
    RunConfig,
    SpecOutcome,
    run_matrix,
    run_spec,
)
from repro.experiments.table1 import Table1, compute_table1, render_table1

__all__ = [
    "ALL_TECHNIQUES",
    "ConsoleListener",
    "Figure2",
    "Figure3",
    "HybridAnalysis",
    "HybridCell",
    "MULTI_ROUND",
    "NullListener",
    "ProcessExecutor",
    "ProgressListener",
    "ResultMatrix",
    "RunConfig",
    "SINGLE_ROUND",
    "SerialExecutor",
    "ShardResult",
    "ShardTask",
    "SpecOutcome",
    "StudyReport",
    "TRADITIONAL",
    "Table1",
    "compute_figure2",
    "compute_figure3",
    "compute_hybrid",
    "compute_table1",
    "execute_shard",
    "generate_report",
    "render_figure2",
    "render_figure3",
    "render_figure4",
    "render_table1",
    "render_table2",
    "run_matrix",
    "run_spec",
]
