"""Experiment orchestration: seeded multi-repeat runs and paper-style reports."""

from .ascii_plot import plot_curves
from .checkpoint import CheckpointStore
from .config import ExperimentConfig
from .distributed import (
    CellTicket,
    coordinate,
    create_queue,
    open_queue,
    run_distributed,
    run_worker,
)
from .reporting import (
    format_curve_table,
    format_metric_table,
    format_sweep_matrix,
    format_table,
    format_target_table,
)
from .runner import CellFailure, StrategyResult, run_comparison
from .sweep import (
    SweepCellResult,
    SweepResult,
    cell_directories,
    execute_experiment,
    metric_matrices,
    run_sweep,
)

__all__ = [
    "CellFailure",
    "CellTicket",
    "CheckpointStore",
    "ExperimentConfig",
    "StrategyResult",
    "SweepCellResult",
    "SweepResult",
    "cell_directories",
    "coordinate",
    "create_queue",
    "execute_experiment",
    "format_curve_table",
    "format_metric_table",
    "format_sweep_matrix",
    "format_table",
    "format_target_table",
    "metric_matrices",
    "open_queue",
    "plot_curves",
    "run_comparison",
    "run_distributed",
    "run_sweep",
    "run_worker",
]
