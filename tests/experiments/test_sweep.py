"""Tests for sweep execution: identity, isolation, resume, distribution.

The sweep system's load-bearing promises:

* a degenerate sweep (one cell, no perturbations) reproduces the plain
  ``run_comparison`` path byte for byte;
* every perturbed cell checkpoints under its own content-hashed
  directory, and the scenario is part of the checkpoint fingerprint in
  *both* directions (perturbed resume refuses clean checkpoints and
  vice versa);
* sweep cells route through the distributed queue unchanged, with
  crash-equivalence intact on perturbed data.
"""

import json
import math
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.experiments import (
    ExperimentConfig,
    SweepCellResult,
    SweepResult,
    cell_directories,
    execute_experiment,
    metric_matrices,
    run_comparison,
    run_sweep,
)
from repro.experiments.distributed import run_worker
from repro.specs import ExperimentSpec, Spec, SweepSpec
from tests.faults import FaultSpec, WorkerFault

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-crash tests fork real worker processes",
)

GRID_KWARGS = dict(batch_size=10, rounds=2, repeats=2, seed=9)


def base_spec(**config_overrides) -> ExperimentSpec:
    config = dict(GRID_KWARGS)
    config.update(config_overrides)
    return ExperimentSpec(
        dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 7}),
        split=Spec(kind="fraction", params={"test_fraction": 0.3}),
        model=Spec(kind="linear", params={"epochs": 2, "batch_size": 32, "seed": 0}),
        strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
        config=ExperimentConfig(**config),
    )


NOISE_AXIS = {
    "name": "noise",
    "cells": [
        {"name": "clean"},
        {"name": "p20", "transforms": [{"kind": "label_noise", "params": {"rate": 0.2}}]},
    ],
}


def sweep_of(axes, base=None, **extra) -> SweepSpec:
    document = {
        "format": "repro.sweep",
        "version": 1,
        "name": "test",
        "base": (base or base_spec()).to_dict(),
        "scenario_seed": 5,
        "axes": axes,
    }
    document.update(extra)
    return SweepSpec.from_dict(document)


def perturbed_spec() -> ExperimentSpec:
    document = base_spec().to_dict()
    document["scenario"] = {
        "name": "p20",
        "seed": 5,
        "transforms": [{"kind": "label_noise", "params": {"rate": 0.2}}],
    }
    return ExperimentSpec.from_dict(document)


def assert_results_identical(left, right):
    assert set(left) == set(right)
    for name in left:
        assert left[name].curve.values.tobytes() == right[name].curve.values.tobytes()
        for a, b in zip(left[name].runs, right[name].runs):
            assert all(
                np.array_equal(x, y)
                for x, y in zip(a.selection_order, b.selection_order)
            )


class TestDegenerateSweep:
    def test_axis_free_sweep_matches_run_comparison(self):
        spec = base_spec()
        train, test, _ = spec.build_datasets()
        reference = run_comparison(
            spec.resolved_model(), spec.strategies, train, test, config=spec.config
        )
        outcome = run_sweep(sweep_of([]))
        (cell_result,) = outcome.cells
        assert cell_result.cell.document == spec.to_dict()
        assert_results_identical(cell_result.results, reference)

    def test_clean_cell_of_perturbed_sweep_matches_reference(self, tmp_path):
        spec = base_spec()
        train, test, _ = spec.build_datasets()
        reference = run_comparison(
            spec.resolved_model(), spec.strategies, train, test, config=spec.config
        )
        outcome = run_sweep(sweep_of([NOISE_AXIS]), sweep_dir=tmp_path / "sweep")
        by_key = {result.cell.key: result for result in outcome.cells}
        assert_results_identical(by_key["clean"].results, reference)
        # ...and the perturbed cell genuinely differs
        perturbed = by_key["p20"].results
        assert any(
            reference[name].curve.values.tobytes()
            != perturbed[name].curve.values.tobytes()
            for name in reference
        )


class TestExecuteExperiment:
    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ConfigurationError, match="checkpoint-dir"):
            execute_experiment(base_spec(), resume=True)

    def test_scenario_costs_feed_metrics(self, tmp_path):
        outcome = run_sweep(
            sweep_of(
                [
                    {
                        "name": "cost",
                        "cells": [
                            {
                                "name": "length",
                                "transforms": [
                                    {
                                        "kind": "annotation_cost",
                                        "params": {
                                            "model": "length",
                                            "base": 1.0,
                                            "per_token": 0.2,
                                        },
                                    }
                                ],
                            }
                        ],
                    }
                ],
                metrics=[{"kind": "auc"}, {"kind": "cost_auc"}],
            )
        )
        (cell_result,) = outcome.cells
        for name in cell_result.results:
            auc = cell_result.metrics["auc"][name]
            cost_auc = cell_result.metrics["cost_auc"][name]
            # non-unit costs reweight the curve; the two AUCs diverge
            assert not math.isnan(cost_auc)
            assert cost_auc != pytest.approx(auc, abs=1e-12)


class TestCellIsolationAndResume:
    def test_cells_checkpoint_in_distinct_directories(self, tmp_path):
        sweep = sweep_of([NOISE_AXIS])
        sweep_dir = tmp_path / "sweep"
        run_sweep(sweep, sweep_dir=sweep_dir)
        directories = [
            cell_directories(sweep_dir, cell)[0] for cell in sweep.cells()
        ]
        assert len({d for d in directories}) == 2
        for directory in directories:
            assert sorted(directory.glob("cell_*.json"))

    def test_resume_reuses_cells_byte_identically(self, tmp_path):
        sweep = sweep_of([NOISE_AXIS])
        sweep_dir = tmp_path / "sweep"
        first = run_sweep(sweep, sweep_dir=sweep_dir)
        before = {
            path: path.read_bytes()
            for path in sorted(sweep_dir.rglob("cell_*.json"))
        }
        second = run_sweep(sweep, sweep_dir=sweep_dir, resume=True)
        after = {
            path: path.read_bytes()
            for path in sorted(sweep_dir.rglob("cell_*.json"))
        }
        assert before == after
        for a, b in zip(first.cells, second.cells):
            assert_results_identical(a.results, b.results)
            for label, per_strategy in a.metrics.items():
                for name, value in per_strategy.items():
                    other = b.metrics[label][name]
                    assert value == other or (
                        math.isnan(value) and math.isnan(other)
                    )

    def test_partial_sweep_resumes_to_the_full_result(self, tmp_path):
        sweep = sweep_of([NOISE_AXIS])
        sweep_dir = tmp_path / "sweep"
        reference = run_sweep(sweep, sweep_dir=tmp_path / "reference")

        class Interrupt(Exception):
            pass

        def bail_after_first(result, train):
            raise Interrupt

        with pytest.raises(Interrupt):
            run_sweep(sweep, sweep_dir=sweep_dir, on_cell=bail_after_first)
        resumed = run_sweep(sweep, sweep_dir=sweep_dir, resume=True)
        assert len(resumed.cells) == len(reference.cells)
        for a, b in zip(resumed.cells, reference.cells):
            assert_results_identical(a.results, b.results)

    def test_multi_cell_sweep_with_base_checkpoint_dir_refused(self, tmp_path):
        base = base_spec().to_dict()
        base["runner"] = {"checkpoint_dir": str(tmp_path / "shared")}
        sweep = sweep_of([NOISE_AXIS], base=ExperimentSpec.from_dict(base))
        with pytest.raises(ConfigurationError, match="sweep-dir"):
            run_sweep(sweep)

    def test_resume_without_sweep_dir_refused(self):
        with pytest.raises(ConfigurationError, match="sweep-dir"):
            run_sweep(sweep_of([NOISE_AXIS]), resume=True)


class TestScenarioFingerprint:
    def test_clean_resume_refuses_perturbed_checkpoints(self, tmp_path):
        directory = tmp_path / "ckpt"
        execute_experiment(perturbed_spec(), checkpoint_dir=directory)
        with pytest.raises(CheckpointError, match="stale"):
            execute_experiment(base_spec(), checkpoint_dir=directory, resume=True)

    def test_perturbed_resume_refuses_clean_checkpoints(self, tmp_path):
        directory = tmp_path / "ckpt"
        execute_experiment(base_spec(), checkpoint_dir=directory)
        with pytest.raises(CheckpointError, match="stale"):
            execute_experiment(perturbed_spec(), checkpoint_dir=directory, resume=True)

    def test_different_scenario_seed_refused(self, tmp_path):
        directory = tmp_path / "ckpt"
        execute_experiment(perturbed_spec(), checkpoint_dir=directory)
        document = perturbed_spec().to_dict()
        document["scenario"]["seed"] = 6
        with pytest.raises(CheckpointError, match="stale"):
            execute_experiment(
                ExperimentSpec.from_dict(document),
                checkpoint_dir=directory,
                resume=True,
            )

    def test_same_scenario_resumes_cleanly(self, tmp_path):
        directory = tmp_path / "ckpt"
        first = execute_experiment(perturbed_spec(), checkpoint_dir=directory)
        second = execute_experiment(
            perturbed_spec(), checkpoint_dir=directory, resume=True
        )
        assert_results_identical(first[0], second[0])


class TestMetricMatrices:
    def _fake_outcome(self, axes, metric_values):
        sweep = sweep_of(axes, metrics=[{"kind": "final"}])
        outcome = SweepResult(sweep=sweep)
        for cell in sweep.cells():
            value = metric_values.get(cell.key)
            if value is None:
                continue
            outcome.cells.append(
                SweepCellResult(
                    cell=cell,
                    results={"random": None},
                    metrics={"final": {"random": value}},
                )
            )
        return outcome

    def test_one_axis_renders_single_row(self):
        outcome = self._fake_outcome(
            [NOISE_AXIS], {"clean": 0.8, "p20": 0.7}
        )
        (matrix,) = metric_matrices(outcome)
        assert matrix["metric"] == "final"
        assert matrix["strategy"] == "random"
        assert matrix["rows"] == [""]
        assert matrix["cols"] == ["clean", "p20"]
        assert matrix["values"] == [[0.8, 0.7]]

    def test_two_axes_fill_the_grid(self):
        shape_axis = {
            "name": "shape",
            "cells": [{"name": "b10"}, {"name": "b20", "experiment": {"batch_size": 20}}],
        }
        outcome = self._fake_outcome(
            [NOISE_AXIS, shape_axis],
            {
                "clean/b10": 0.8, "clean/b20": 0.81,
                "p20/b10": 0.7, "p20/b20": 0.71,
            },
        )
        (matrix,) = metric_matrices(outcome)
        assert matrix["rows"] == ["clean", "p20"]
        assert matrix["cols"] == ["b10", "b20"]
        assert matrix["row_axis"] == "noise"
        assert matrix["col_axis"] == "shape"
        assert matrix["values"] == [[0.8, 0.81], [0.7, 0.71]]

    def test_missing_and_nan_cells_become_none(self):
        outcome = self._fake_outcome(
            [NOISE_AXIS], {"clean": float("nan")}
        )
        (matrix,) = metric_matrices(outcome)
        assert matrix["values"] == [[None, None]]

    def test_axis_free_sweep_has_no_matrices(self):
        assert metric_matrices(self._fake_outcome([], {})) == []

    def test_three_axes_have_no_matrices(self):
        axes = [
            {"name": f"a{i}", "cells": [{"name": "x"}, {"name": "y"}]}
            for i in range(3)
        ]
        sweep = sweep_of(axes, metrics=[{"kind": "final"}])
        assert metric_matrices(SweepResult(sweep=sweep)) == []


@needs_fork
class TestPerturbedCellDistribution:
    def test_distributed_perturbed_cell_matches_serial(self, tmp_path):
        spec = perturbed_spec()
        serial_dir = tmp_path / "serial"
        serial = execute_experiment(spec, checkpoint_dir=serial_dir)[0]

        document = spec.to_dict()
        document["runner"] = {
            "queue_dir": str(tmp_path / "q"),
            "local_workers": 2,
            "checkpoint_dir": str(tmp_path / "dist"),
        }
        distributed = execute_experiment(ExperimentSpec.from_dict(document))[0]
        assert_results_identical(serial, distributed)
        serial_files = sorted(Path(serial_dir).glob("cell_*.json"))
        dist_files = sorted((tmp_path / "dist").glob("cell_*.json"))
        assert [p.name for p in serial_files] == [p.name for p in dist_files]
        for a, b in zip(serial_files, dist_files):
            assert a.read_bytes() == b.read_bytes()

    def test_worker_crash_on_perturbed_cell_is_recovered(self, tmp_path):
        spec = perturbed_spec()
        serial_dir = tmp_path / "serial"
        execute_experiment(spec, checkpoint_dir=serial_dir)

        from repro.experiments.distributed import create_queue

        queue_dir = tmp_path / "q"
        queue = create_queue(queue_dir, spec, lease_ttl=1.0)
        victim = multiprocessing.get_context("fork").Process(
            target=_crashing_worker,
            args=(str(queue_dir), str(tmp_path / "tokens")),
            daemon=True,
        )
        victim.start()
        victim.join(timeout=120)
        assert victim.exitcode == 23
        summary = run_worker(queue_dir, owner="successor", poll=0.05)
        assert summary["completed"] == 4
        serial_files = sorted(Path(serial_dir).glob("cell_*.json"))
        dist_files = sorted(Path(queue.checkpoint_directory).glob("cell_*.json"))
        assert [p.name for p in serial_files] == [p.name for p in dist_files]
        for a, b in zip(serial_files, dist_files):
            assert a.read_bytes() == b.read_bytes()


def _crashing_worker(queue_dir, token_dir):
    fault = WorkerFault(
        "saved",
        FaultSpec(token_dir=Path(token_dir), fail_on_call=1, mode="exit", times=1),
    )
    run_worker(queue_dir, owner="victim", poll=0.05, on_event=fault)
