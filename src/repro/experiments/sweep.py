"""Sweep execution: run a scenario grid through the existing runners.

A sweep cell is just an experiment document, so this module adds no new
execution machinery: :func:`execute_experiment` routes one spec through
:func:`~repro.experiments.runner.run_comparison` (serial) or
:func:`~repro.experiments.distributed.run_distributed` (parallel) exactly as
``repro run --config`` does — it *is* the execution half of that
command, extracted so sweeps and the CLI share one code path — and
:func:`run_sweep` drives every grid cell through it, isolating each
cell's checkpoints (and queue, when distributed) in its own
subdirectory keyed by the cell's content-hashed slug.

The metric half is the :class:`~repro.eval.pipeline.MetricPipeline` the
sweep document configures: each cell's results become a
:class:`~repro.eval.pipeline.MetricContext` (with the scenario's
annotation costs attached), and the per-cell metric matrices fold into
grid-shaped matrices for 1- and 2-axis sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from ..eval.pipeline import MetricContext
from ..exceptions import ConfigurationError
from ..specs.experiment import ExperimentSpec
from ..specs.sweep import SweepCell, SweepSpec
from .distributed import run_distributed
from .runner import StrategyResult, run_comparison


def execute_experiment(
    spec: ExperimentSpec,
    checkpoint_dir: "str | Path | None" = None,
    queue_dir: "str | Path | None" = None,
    resume: "bool | None" = None,
):
    """Execute one experiment document through its runner options.

    ``checkpoint_dir`` / ``queue_dir`` / ``resume`` override the
    document's ``runner`` section when given (sweeps use this to give
    every cell its own directories).  Returns
    ``(results, train, test, task)`` with ``results`` the
    ``{strategy: StrategyResult}`` mapping of the runner.
    """
    runner = dict(spec.runner)
    if checkpoint_dir is not None:
        runner["checkpoint_dir"] = str(checkpoint_dir)
    if queue_dir is not None:
        runner["queue_dir"] = str(queue_dir)
    if resume is not None:
        runner["resume"] = bool(resume)
    if runner["resume"] and not runner["checkpoint_dir"]:
        raise ConfigurationError("--resume requires --checkpoint-dir")
    train, test, task = spec.build_datasets()
    if runner["queue_dir"]:
        results = run_distributed(
            spec,
            runner["queue_dir"],
            workers=runner["local_workers"],
            lease_ttl=runner["lease_ttl"],
            max_retries=runner["max_retries"],
            on_error=runner["on_error"],
            timeout=runner["timeout"],
            checkpoint_dir=runner["checkpoint_dir"],
        )
    else:
        results = run_comparison(
            spec.resolved_model(),
            spec.strategies,
            train,
            test,
            config=spec.config,
            checkpoint_dir=runner["checkpoint_dir"],
            resume=runner["resume"],
            max_retries=runner["max_retries"],
            on_error=runner["on_error"],
            scenario=spec.scenario_fingerprint(),
        )
    return results, train, test, task


@dataclass
class SweepCellResult:
    """One executed grid cell: its derived spec's results and metrics."""

    cell: SweepCell
    results: "dict[str, StrategyResult]"
    #: ``{metric_label: {strategy: value}}`` from the sweep's pipeline.
    metrics: "dict[str, dict[str, float]]"
    task: str = ""
    train_name: str = ""


@dataclass
class SweepResult:
    """A finished sweep: every cell result in grid order."""

    sweep: SweepSpec
    cells: "list[SweepCellResult]" = field(default_factory=list)

    def by_coords(self) -> "dict[tuple[int, ...], SweepCellResult]":
        """Map grid coordinates to their cell results."""
        return {result.cell.coords: result for result in self.cells}

    def strategies(self) -> list[str]:
        """Strategy names in first-seen order across all cells."""
        names: list[str] = []
        for result in self.cells:
            for name in result.results:
                if name not in names:
                    names.append(name)
        return names


def cell_directories(
    sweep_dir: "str | Path", cell: SweepCell
) -> "tuple[Path, Path]":
    """``(checkpoint_dir, queue_dir)`` for one cell under the sweep dir.

    Keyed by the cell's content-hashed slug, so editing a cell's
    perturbations retires its old directory instead of poisoning resume
    — and the per-cell checkpoint fingerprint (which embeds the scenario)
    refuses anything that still collides.
    """
    base = Path(sweep_dir) / "cells" / cell.slug
    return base / "checkpoints", base / "queue"


def run_sweep(
    sweep: SweepSpec,
    sweep_dir: "str | Path | None" = None,
    resume: bool = False,
    on_cell=None,
) -> SweepResult:
    """Execute every grid cell and compute its metric matrix.

    With ``sweep_dir``, each cell checkpoints (and queues, when the base
    document routes through the distributed queue) under its own
    subdirectory; ``resume=True`` then reuses completed cells.  Without
    ``sweep_dir``, a multi-cell sweep whose base document names a
    ``checkpoint_dir`` or ``queue_dir`` is refused — the cells would
    overwrite each other's state.

    ``on_cell`` is called as ``on_cell(result, train)`` after each cell
    (the CLI prints incrementally from it).
    """
    pipeline = sweep.metric_pipeline()
    cells = sweep.cells()
    runner = sweep.base.get("runner", {}) if isinstance(sweep.base, dict) else {}
    if sweep_dir is None and len(cells) > 1 and (
        runner.get("checkpoint_dir") or runner.get("queue_dir")
    ):
        raise ConfigurationError(
            "a multi-cell sweep whose base document sets checkpoint_dir or "
            "queue_dir needs a sweep directory (--sweep-dir) to keep the "
            "cells' state apart"
        )
    if resume and sweep_dir is None:
        raise ConfigurationError("sweep resume requires --sweep-dir")
    outcome = SweepResult(sweep=sweep)
    for cell in cells:
        checkpoint_dir = queue_dir = None
        if sweep_dir is not None:
            checkpoint_dir, queue_dir = cell_directories(sweep_dir, cell)
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
            if not runner.get("queue_dir"):
                queue_dir = None  # the base document runs in-process
        results, train, _test, task = execute_experiment(
            cell.spec,
            checkpoint_dir=checkpoint_dir,
            queue_dir=queue_dir,
            resume=resume if sweep_dir is not None else None,
        )
        context = MetricContext.from_strategy_results(
            results, costs=cell.spec.annotation_costs(train)
        )
        result = SweepCellResult(
            cell=cell,
            results=results,
            metrics=pipeline.compute(context),
            task=task,
            train_name=getattr(train, "name", ""),
        )
        outcome.cells.append(result)
        if on_cell is not None:
            on_cell(result, train)
    return outcome


def metric_matrices(outcome: SweepResult) -> "list[dict]":
    """Grid-shaped views of a sweep's metrics, for 1- and 2-axis sweeps.

    One entry per (metric, strategy): ``{"metric", "strategy", "rows",
    "cols", "values"}`` where ``values[i][j]`` is the measurement at row
    cell ``i`` / column cell ``j`` (``None`` for cells that did not
    run).  A 1-axis sweep renders as a single-row matrix; sweeps with
    three or more axes return no matrices (the per-cell tables remain).
    """
    axes = outcome.sweep.axes
    if not 1 <= len(axes) <= 2:
        return []
    by_coords = outcome.by_coords()
    pipeline_labels = outcome.sweep.metric_pipeline().labels()
    if len(axes) == 1:
        row_axis, col_axis = None, axes[0]
    else:
        row_axis, col_axis = axes[0], axes[1]
    row_names = (
        [cell.name for cell in row_axis.cells] if row_axis is not None else [""]
    )
    col_names = [cell.name for cell in col_axis.cells]
    matrices = []
    for label in pipeline_labels:
        for strategy in outcome.strategies():
            values = []
            for row in range(len(row_names)):
                line: "list[float | None]" = []
                for col in range(len(col_names)):
                    coords = (col,) if row_axis is None else (row, col)
                    cell_result = by_coords.get(coords)
                    value = (
                        None
                        if cell_result is None
                        else cell_result.metrics.get(label, {}).get(strategy)
                    )
                    if value is not None and math.isnan(value):
                        value = None
                    line.append(value)
                values.append(line)
            matrices.append(
                {
                    "metric": label,
                    "strategy": strategy,
                    "rows": row_names,
                    "cols": col_names,
                    "row_axis": row_axis.name if row_axis is not None else "",
                    "col_axis": col_axis.name,
                    "values": values,
                }
            )
    return matrices
