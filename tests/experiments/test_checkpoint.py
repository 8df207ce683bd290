"""Tests for per-cell checkpointing and resume of ``run_comparison``."""

import json
import re

import numpy as np
import pytest

from repro.core.session import SessionEngine, run_to_completion
from repro.core.strategies import Entropy, Random, WSHS
from repro.exceptions import CheckpointError
from repro.experiments import CheckpointStore, ExperimentConfig, run_comparison
from repro.experiments.checkpoint import result_from_dict, result_to_dict
from repro.models.linear import LinearSoftmax

CONFIG_KWARGS = dict(batch_size=15, rounds=2, repeats=2, seed=9)


def plain_model():
    return LinearSoftmax(epochs=4, seed=0)


def compare(text_dataset, model_factory=plain_model, **kwargs):
    return run_comparison(
        model_factory,
        {"Random": Random, "wshs:entropy": lambda: WSHS(Entropy(), window=2)},
        text_dataset.subset(range(200)),
        text_dataset.subset(range(200, 300)),
        config=ExperimentConfig(**CONFIG_KWARGS),
        **kwargs,
    )


def assert_results_identical(expected, actual):
    """Byte-level equality of two ``run_comparison`` outputs."""
    assert list(expected) == list(actual)
    for name in expected:
        a, b = expected[name], actual[name]
        assert a.curve.counts.tobytes() == b.curve.counts.tobytes()
        assert a.curve.values.tobytes() == b.curve.values.tobytes()
        assert a.std.tobytes() == b.std.tobytes()
        assert len(a.runs) == len(b.runs)
        for run_a, run_b in zip(a.runs, b.runs):
            assert run_a.strategy_name == run_b.strategy_name
            assert len(run_a.records) == len(run_b.records)
            for rec_a, rec_b in zip(run_a.records, run_b.records):
                assert rec_a.round_index == rec_b.round_index
                assert rec_a.labeled_count == rec_b.labeled_count
                assert rec_a.metric == rec_b.metric
                assert np.array_equal(rec_a.selected, rec_b.selected)
                assert np.array_equal(
                    rec_a.selected_scores, rec_b.selected_scores, equal_nan=True
                )
            assert len(run_a.selection_order) == len(run_b.selection_order)
            for sel_a, sel_b in zip(run_a.selection_order, run_b.selection_order):
                assert np.array_equal(sel_a, sel_b)
            assert run_a.history.n_samples == run_b.history.n_samples
            assert run_a.history.rounds == run_b.history.rounds
            everything = np.arange(run_a.history.n_samples)
            assert (
                run_a.history.sequence_matrix(everything).tobytes()
                == run_b.history.sequence_matrix(everything).tobytes()
            )


@pytest.fixture(scope="module")
def small_result(text_dataset):
    return run_to_completion(SessionEngine(
        LinearSoftmax(epochs=3, seed=0),
        WSHS(Entropy(), window=2),
        text_dataset.subset(range(120)),
        text_dataset.subset(range(120, 160)),
        batch_size=10,
        rounds=2,
        seed_or_rng=3,
    ))


class TestResultRoundtrip:
    def test_records_and_history_survive(self, small_result):
        restored = result_from_dict(result_to_dict(small_result))
        assert restored.strategy_name == small_result.strategy_name
        assert restored.final_model is None
        assert len(restored.records) == len(small_result.records)
        for original, copy in zip(small_result.records, restored.records):
            assert original.metric == copy.metric
            assert np.array_equal(original.selected, copy.selected)
            assert np.array_equal(
                original.selected_scores, copy.selected_scores, equal_nan=True
            )
        assert restored.history.rounds == small_result.history.rounds
        everything = np.arange(small_result.history.n_samples)
        assert (
            restored.history.sequence_matrix(everything).tobytes()
            == small_result.history.sequence_matrix(everything).tobytes()
        )

    def test_payload_is_json_serialisable(self, small_result):
        json.dumps(result_to_dict(small_result))


#: A damaged cell-file result, and how its CheckpointError names it.
DAMAGED_RESULTS = {
    "string-nan-metric": (
        lambda result: result["records"][0].update(metric="nan"),
        "result.records must be a list of round records",
    ),
    "string-metric": (
        lambda result: result["records"][1].update(metric="0.5"),
        "result.records must be a list of round records",
    ),
    "bool-round-index": (
        lambda result: result["records"][0].update(round_index=True),
        "result.records must be a list of round records",
    ),
    "empty-history": (
        lambda result: result["history"].update(n_samples=0),
        "result.history must be a history store",
    ),
    "strategy-name": (
        lambda result: result.update(strategy_name=5),
        "result.strategy_name must be a string, got 5",
    ),
    "selection-order": (
        lambda result: result["selection_order"][0].__setitem__(0, "3"),
        "result.selection_order must be a list of index lists",
    ),
    "no-result": (lambda result: result.clear(), "result.strategy_name must be a string"),
    "index-past-int64": (
        lambda result: result["selection_order"][0].__setitem__(0, 2**70),
        "result.selection_order must be a list of index lists",
    ),
    "selected-past-int64": (
        lambda result: result["records"][1]["selected"].__setitem__(0, 2**63),
        "result.records must be a list of round records",
    ),
}


class TestCheckpointStore:
    @pytest.mark.parametrize("case", list(DAMAGED_RESULTS))
    def test_damaged_result_names_the_field_and_the_file(self, small_result, tmp_path, case):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        path = store.save("Random", 0, 42, small_result)
        payload = json.loads(path.read_text())
        damage, message = DAMAGED_RESULTS[case]
        damage(payload["result"])
        path.write_text(json.dumps(payload))
        prefix = re.escape(f"corrupt checkpoint {path}: ")
        with pytest.raises(CheckpointError, match=prefix) as error:
            store.load("Random", 0, 42)
        assert message in str(error.value)

    def test_real_cells_pass_the_rules(self, text_dataset, tmp_path):
        # Random's NaN scores and track_flips' label rounds are legal.
        result = run_to_completion(SessionEngine(
            LinearSoftmax(epochs=3, seed=0),
            Random(),
            text_dataset.subset(range(120)),
            text_dataset.subset(range(120, 160)),
            batch_size=10,
            rounds=2,
            seed_or_rng=3,
            track_flips=True,
        ))
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        path = store.save("Random", 0, 42, result)
        payload = json.loads(path.read_text())["result"]
        assert payload["history"]["labels"]
        assert np.isnan(result.records[1].selected_scores).all()
        loaded = store.load("Random", 0, 42)
        assert json.dumps(result_to_dict(loaded)) == json.dumps(result_to_dict(result))

    def test_null_history_labels_read_as_none(self, small_result, tmp_path):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        path = store.save("Random", 0, 42, small_result)
        payload = json.loads(path.read_text())
        payload["result"]["history"]["labels"] = None
        path.write_text(json.dumps(payload))
        loaded = store.load("Random", 0, 42)
        assert json.dumps(result_to_dict(loaded)) == json.dumps(result_to_dict(small_result))

    def test_save_load_roundtrip(self, small_result, tmp_path):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        store.save("wshs:entropy", 1, 42, small_result)
        loaded = store.load("wshs:entropy", 1, 42)
        assert loaded is not None
        assert loaded.history.rounds == small_result.history.rounds

    def test_missing_cell_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        assert store.load("Random", 0, 1) is None

    def test_seed_mismatch_is_stale(self, small_result, tmp_path):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        store.save("Random", 0, 42, small_result)
        with pytest.raises(CheckpointError, match="stale"):
            store.load("Random", 0, 43)

    def test_config_mismatch_is_stale(self, small_result, tmp_path):
        CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS)).save(
            "Random", 0, 42, small_result
        )
        other = CheckpointStore(
            tmp_path, ExperimentConfig(batch_size=15, rounds=3, repeats=2, seed=9)
        )
        with pytest.raises(CheckpointError, match="stale"):
            other.load("Random", 0, 42)

    def test_training_mode_mismatch_is_stale(self, small_result, tmp_path):
        # A cold run's checkpoints must not seed a warm run (and vice
        # versa): the modes follow different optimisation trajectories.
        CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS)).save(
            "Random", 0, 42, small_result
        )
        warm = CheckpointStore(
            tmp_path, ExperimentConfig(**CONFIG_KWARGS, training_mode="warm")
        )
        with pytest.raises(CheckpointError, match="stale"):
            warm.load("Random", 0, 42)

    def test_distinct_names_get_distinct_paths(self, tmp_path):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        paths = {
            store.cell_path(name, 0)
            for name in ["wshs:entropy", "wshs entropy", "wshs-entropy", "Random"]
        }
        assert len(paths) == 4
        for path in paths:
            assert "/" not in path.name and ":" not in path.name


class TestCheckpointedRun:
    def test_cell_files_written(self, text_dataset, tmp_path):
        compare(text_dataset, checkpoint_dir=str(tmp_path))
        cells = sorted(tmp_path.glob("cell_*.json"))
        assert len(cells) == 4  # 2 strategies x 2 repeats
        payload = json.loads(cells[0].read_text())
        assert payload["format"] == "repro.al_cell"
        assert not list(tmp_path.glob("*.tmp"))

    def test_full_resume_skips_all_recompute(self, text_dataset, tmp_path):
        first = compare(text_dataset, checkpoint_dir=str(tmp_path))

        def exploding_factory():
            raise AssertionError("model factory called during a full resume")

        second = compare(
            text_dataset,
            model_factory=exploding_factory,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert_results_identical(first, second)

    def test_partial_resume_recomputes_only_missing(self, text_dataset, tmp_path):
        first = compare(text_dataset, checkpoint_dir=str(tmp_path))
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        store.cell_path("Random", 1).unlink()
        calls = [0]

        def counting_factory():
            calls[0] += 1
            return plain_model()

        second = compare(
            text_dataset,
            model_factory=counting_factory,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert calls[0] == 1  # exactly the one deleted cell was recomputed
        assert_results_identical(first, second)

    def test_resume_false_ignores_and_overwrites(self, text_dataset, tmp_path):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        bad = store.cell_path("Random", 0)
        bad.write_text("{definitely not json")
        compare(text_dataset, checkpoint_dir=str(tmp_path), resume=False)
        assert json.loads(bad.read_text())["format"] == "repro.al_cell"

    def test_resumed_equals_unresumed(self, text_dataset, tmp_path):
        baseline = compare(text_dataset)
        checkpointed = compare(text_dataset, checkpoint_dir=str(tmp_path))
        resumed = compare(text_dataset, checkpoint_dir=str(tmp_path), resume=True)
        assert_results_identical(baseline, checkpointed)
        assert_results_identical(baseline, resumed)

    def test_warm_resume_equals_unresumed(self, text_dataset, tmp_path):
        def compare_warm(**kwargs):
            return run_comparison(
                plain_model,
                {"Random": Random, "wshs:entropy": lambda: WSHS(Entropy(), window=2)},
                text_dataset.subset(range(200)),
                text_dataset.subset(range(200, 300)),
                config=ExperimentConfig(**CONFIG_KWARGS, training_mode="warm"),
                **kwargs,
            )

        baseline = compare_warm()
        interrupted = compare_warm(checkpoint_dir=str(tmp_path))
        # Drop one cell so the resume really recomputes a warm run.
        store = CheckpointStore(
            tmp_path, ExperimentConfig(**CONFIG_KWARGS, training_mode="warm")
        )
        store.cell_path("Random", 1).unlink()
        resumed = compare_warm(checkpoint_dir=str(tmp_path), resume=True)
        assert_results_identical(baseline, interrupted)
        assert_results_identical(baseline, resumed)


class TestRejectedCheckpoints:
    def test_corrupt_json_rejected(self, text_dataset, tmp_path):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        store.cell_path("Random", 0).write_text("{broken")
        with pytest.raises(CheckpointError, match="corrupt"):
            compare(text_dataset, checkpoint_dir=str(tmp_path), resume=True)

    def test_wrong_format_rejected(self, text_dataset, tmp_path):
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        store.cell_path("Random", 0).write_text(json.dumps({"format": "other"}))
        with pytest.raises(CheckpointError, match="not a comparison-cell"):
            compare(text_dataset, checkpoint_dir=str(tmp_path), resume=True)

    def test_unknown_version_rejected(self, text_dataset, tmp_path):
        compare(text_dataset, checkpoint_dir=str(tmp_path))
        store = CheckpointStore(tmp_path, ExperimentConfig(**CONFIG_KWARGS))
        path = store.cell_path("Random", 0)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            compare(text_dataset, checkpoint_dir=str(tmp_path), resume=True)

    def test_stale_run_config_rejected(self, text_dataset, tmp_path):
        compare(text_dataset, checkpoint_dir=str(tmp_path))
        with pytest.raises(CheckpointError, match="stale"):
            run_comparison(
                plain_model,
                {"Random": Random, "wshs:entropy": lambda: WSHS(Entropy(), window=2)},
                text_dataset.subset(range(200)),
                text_dataset.subset(range(200, 300)),
                config=ExperimentConfig(batch_size=15, rounds=2, repeats=2, seed=10),
                checkpoint_dir=str(tmp_path),
                resume=True,
            )
