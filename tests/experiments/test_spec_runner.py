"""Spec-described grids: queue workers, spec-fingerprinted checkpoints.

A grid whose model and strategies are all given as specs is pure data,
so work-queue workers can rebuild it in any process (``spawn`` relies on
no inherited closures) and checkpoints can embed the exact specs that
produced them.  These tests pin down both properties, including the
byte-identity of serial, forked-worker, and spawned-worker execution.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.experiments import ExperimentConfig, run_comparison
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.distributed import (
    coordinate,
    create_queue,
    run_distributed,
    run_worker,
)
from repro.specs import ExperimentSpec, Spec

MODEL_SPEC = {"kind": "linear", "params": {"epochs": 2, "seed": 0}}
STRATEGY_SPECS = {
    "random": {"kind": "random"},
    "wshs:entropy": {
        "kind": "wshs",
        "params": {"base": {"kind": "entropy", "params": {}}, "window": 2},
    },
}
CONFIG = ExperimentConfig(batch_size=5, rounds=2, repeats=2, seed=11)


def _pool(text_dataset):
    return text_dataset.subset(range(150)), text_dataset.subset(range(150, 220))


def _assert_identical(left, right):
    assert list(left) == list(right)
    for name in left:
        assert np.array_equal(left[name].curve.values, right[name].curve.values)
        for a, b in zip(left[name].runs, right[name].runs):
            assert all(
                np.array_equal(x, y)
                for x, y in zip(a.selection_order, b.selection_order)
            )


def _queue_grid() -> "tuple[dict, ExperimentSpec]":
    """``(serial results, spec)`` of the spec grid on a dataset spec."""
    spec = ExperimentSpec(
        dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 7}),
        model=MODEL_SPEC,
        strategies=STRATEGY_SPECS,
        config=CONFIG,
    )
    train, test, _task = spec.build_datasets()
    serial = run_comparison(MODEL_SPEC, STRATEGY_SPECS, train, test, config=CONFIG)
    return serial, spec


class TestSpawnPool:
    """Queue workers started with ``spawn`` or ``fork`` reproduce serial."""

    def test_spawn_matches_serial(self, tmp_path):
        serial, spec = _queue_grid()
        create_queue(tmp_path / "q", spec)
        worker = multiprocessing.get_context("spawn").Process(
            target=run_worker,
            args=(str(tmp_path / "q"),),
            kwargs={"owner": "spawned", "poll": 0.05},
        )
        worker.start()
        worker.join(timeout=300)
        assert worker.exitcode == 0
        _assert_identical(serial, coordinate(tmp_path / "q", poll=0.05))

    def test_fork_matches_serial(self, tmp_path):
        serial, spec = _queue_grid()
        forked = run_distributed(spec, tmp_path / "q", workers=2, poll=0.05)
        _assert_identical(serial, forked)

    def test_non_callable_component_rejected(self, text_dataset):
        train, test = _pool(text_dataset)
        with pytest.raises(ConfigurationError, match="model_factory"):
            run_comparison(42, STRATEGY_SPECS, train, test, config=CONFIG)
        with pytest.raises(ConfigurationError, match="strategy"):
            run_comparison(MODEL_SPEC, {"random": 42}, train, test, config=CONFIG)


class TestSpecCheckpoints:
    def test_cell_files_embed_specs(self, text_dataset, tmp_path):
        train, test = _pool(text_dataset)
        run_comparison(
            MODEL_SPEC, STRATEGY_SPECS, train, test, config=CONFIG,
            checkpoint_dir=str(tmp_path),
        )
        cells = sorted(tmp_path.glob("cell_*.json"))
        assert len(cells) == 4  # 2 strategies x 2 repeats
        payload = json.loads(cells[0].read_text())
        assert payload["specs"]["model"]["kind"] == "linear"
        assert payload["specs"]["strategy"]["kind"] in {"random", "wshs"}

    def test_resume_matches_uninterrupted(self, text_dataset, tmp_path):
        train, test = _pool(text_dataset)
        first = run_comparison(
            MODEL_SPEC, STRATEGY_SPECS, train, test, config=CONFIG,
            checkpoint_dir=str(tmp_path),
        )
        resumed = run_comparison(
            MODEL_SPEC, STRATEGY_SPECS, train, test, config=CONFIG,
            checkpoint_dir=str(tmp_path), resume=True,
        )
        _assert_identical(first, resumed)

    def test_different_model_spec_is_stale(self, text_dataset, tmp_path):
        train, test = _pool(text_dataset)
        run_comparison(
            MODEL_SPEC, STRATEGY_SPECS, train, test, config=CONFIG,
            checkpoint_dir=str(tmp_path),
        )
        other_model = {"kind": "linear", "params": {"epochs": 3, "seed": 0}}
        with pytest.raises(CheckpointError, match="stale"):
            run_comparison(
                other_model, STRATEGY_SPECS, train, test, config=CONFIG,
                checkpoint_dir=str(tmp_path), resume=True,
            )

    def test_factory_run_cannot_resume_spec_run(self, text_dataset, tmp_path):
        # A factory-described run has no spec fingerprint, so its identity
        # cannot be verified against spec-bearing checkpoints.
        train, test = _pool(text_dataset)
        run_comparison(
            MODEL_SPEC, STRATEGY_SPECS, train, test, config=CONFIG,
            checkpoint_dir=str(tmp_path),
        )
        from repro.specs import build_model, build_strategy

        with pytest.raises(CheckpointError, match="stale"):
            run_comparison(
                lambda: build_model(MODEL_SPEC),
                {
                    name: (lambda spec=spec: build_strategy(spec))
                    for name, spec in STRATEGY_SPECS.items()
                },
                train, test, config=CONFIG,
                checkpoint_dir=str(tmp_path), resume=True,
            )

    def test_store_spec_fingerprint_shape(self, tmp_path):
        store = CheckpointStore(
            tmp_path, CONFIG,
            model_spec=MODEL_SPEC,
            strategy_specs={"random": {"kind": "random", "params": {}}},
        )
        specs = store._cell_specs("random")
        assert specs == {
            "model": MODEL_SPEC,
            "strategy": {"kind": "random", "params": {}},
        }
        assert store._cell_specs("unknown")["strategy"] is None
