"""Tests for JSON persistence of trained LHS rankers."""

import json
import re
import sys

import numpy as np
import pytest

from repro.core.ranker_training import RankerTrainingConfig, train_lhs_ranker
from repro.core.strategies import Entropy, LHS
from repro.core.session import SessionEngine, run_to_completion
from repro.exceptions import DataError
from repro.ltr.lambdamart import LambdaMART
from repro.ltr.trees import RegressionTree
from repro.models.linear import LinearSoftmax
from repro.persistence import (
    _tree_from_dict,
    _tree_to_dict,
    load_lhs_ranker,
    save_lhs_ranker,
)


@pytest.fixture(scope="module", params=["ar", "lstm", None], ids=["ar", "lstm", "none"])
def ranker(request, text_dataset):
    return train_lhs_ranker(
        LinearSoftmax(epochs=4, seed=0),
        text_dataset.subset(range(250)),
        text_dataset.subset(range(250, 350)),
        base=Entropy(),
        config=RankerTrainingConfig(
            rounds=2, candidates_per_round=6, initial_size=15,
            predictor=request.param, predictor_rounds=3, eval_size=80,
        ),
        seed_or_rng=1,
    )


class TestTreeRoundtrip:
    def test_predictions_identical(self):
        rng = np.random.default_rng(0)
        features = rng.random((100, 4))
        targets = rng.random(100)
        tree = RegressionTree(max_depth=3).fit(features, targets)
        restored = _tree_from_dict(_tree_to_dict(tree))
        assert np.array_equal(tree.predict(features), restored.predict(features))

    def test_unfitted_rejected(self):
        with pytest.raises(DataError):
            _tree_to_dict(RegressionTree())

    def test_tree_deeper_than_recursion_limit(self):
        # A degenerate chain far past the interpreter's recursion limit:
        # only iterative walks survive loading, measuring, predicting and
        # saving it.  Built and compared with explicit stacks — even
        # ``==`` on such a payload would recurse.  The split at level k
        # sends x <= k + 0.5 to a leaf worth k.
        depth = sys.getrecursionlimit() + 500
        root = node = {"feature": 0, "threshold": 0.5}
        for level in range(depth):
            node["left"] = {"value": float(level)}
            node["right"] = {"feature": 0, "threshold": level + 1.5}
            node = node["right"]
        node["left"] = {"value": -1.0}
        node["right"] = {"value": -2.0}

        tree = _tree_from_dict({"max_depth": 3, "min_samples_leaf": 5, "root": root})
        assert (tree.depth(), tree.leaf_count()) == (depth + 1, depth + 2)
        probe = np.array([[0.0], [7.0], [float(depth)], [depth + 9.0]])
        np.testing.assert_array_equal(tree.predict(probe), [0.0, 7.0, -1.0, -2.0])

        restored = _tree_to_dict(tree)["root"]
        visited = 0
        stack = [(root, restored)]
        while stack:
            original, copy = stack.pop()
            visited += 1
            assert list(original) == list(copy)
            if "value" in original:
                assert original["value"] == copy["value"]
            else:
                assert original["feature"] == copy["feature"]
                assert original["threshold"] == copy["threshold"]
                stack.append((original["left"], copy["left"]))
                stack.append((original["right"], copy["right"]))
        assert visited == 2 * depth + 3


class TestRankerRoundtrip:
    def test_predictions_identical(self, ranker, tmp_path):
        path = tmp_path / "ranker.json"
        save_lhs_ranker(ranker, path)
        restored = load_lhs_ranker(path)
        features = np.random.default_rng(3).random((12, ranker.extractor.dim))
        assert np.allclose(
            ranker.model.predict(features), restored.model.predict(features)
        )

    def test_extractor_config_preserved(self, ranker, tmp_path):
        path = tmp_path / "ranker.json"
        save_lhs_ranker(ranker, path)
        restored = load_lhs_ranker(path)
        assert restored.extractor.window == ranker.extractor.window
        assert restored.extractor.feature_names() == ranker.extractor.feature_names()
        assert restored.base_name == ranker.base_name
        assert restored.training_rows == ranker.training_rows

    def test_predictor_preserved(self, ranker, tmp_path):
        path = tmp_path / "ranker.json"
        save_lhs_ranker(ranker, path)
        restored = load_lhs_ranker(path)
        if ranker.extractor.predictor is None:
            assert restored.extractor.predictor is None
        else:
            sequences = [np.array([0.2, 0.4, 0.6]), np.array([0.9, 0.5])]
            assert np.allclose(
                ranker.extractor.predictor.predict(sequences),
                restored.extractor.predictor.predict(sequences),
            )

    def test_restored_ranker_runs_in_loop(self, ranker, tmp_path, text_dataset):
        path = tmp_path / "ranker.json"
        save_lhs_ranker(ranker, path)
        restored = load_lhs_ranker(path)
        engine = SessionEngine(
            LinearSoftmax(epochs=3, seed=0),
            LHS(Entropy(), restored),
            text_dataset.subset(range(350, 550)),
            text_dataset.subset(range(550, 600)),
            batch_size=10,
            rounds=2,
            seed_or_rng=0,
        )
        assert len(run_to_completion(engine).curve()) == 3

    def test_file_is_plain_json(self, ranker, tmp_path):
        path = tmp_path / "ranker.json"
        save_lhs_ranker(ranker, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro.lhs_ranker"

    def test_save_is_atomic(self, ranker, tmp_path, monkeypatch):
        import os

        path = tmp_path / "ranker.json"
        save_lhs_ranker(ranker, path)
        original = path.read_bytes()
        # Interrupt the rewrite at the swap: the existing file must stay
        # intact and no temp file may be left behind.
        monkeypatch.setattr(
            os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("boom"))
        )
        with pytest.raises(OSError):
            save_lhs_ranker(ranker, path)
        assert path.read_bytes() == original
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["ranker.json"]


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_lhs_ranker(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(DataError):
            load_lhs_ranker(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataError):
            load_lhs_ranker(path)

    def test_unknown_version(self, ranker, tmp_path):
        path = tmp_path / "ranker.json"
        save_lhs_ranker(ranker, path)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_lhs_ranker(path)

    def test_unfitted_model_rejected_on_save(self, ranker, tmp_path):
        from repro.core.ranker_training import LHSRanker

        broken = LHSRanker(model=LambdaMART(), extractor=ranker.extractor)
        with pytest.raises(DataError):
            save_lhs_ranker(broken, tmp_path / "x.json")


@pytest.mark.parametrize("ranker", ["ar"], indirect=True)
class TestMalformedRanker:
    """A malformed bundle is a ``DataError`` naming the file and the field."""

    @pytest.fixture()
    def document(self, ranker, tmp_path):
        path = tmp_path / "ranker.json"
        save_lhs_ranker(ranker, path)
        return path, json.loads(path.read_text())

    @staticmethod
    def assert_rejected(path, payload, message):
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_lhs_ranker(path)

    @pytest.mark.parametrize(
        "section", ["model", "extractor", "base_name", "training_rows"]
    )
    def test_missing_section(self, document, section):
        path, payload = document
        del payload[section]
        self.assert_rejected(path, payload, f"{section} is missing")

    def test_section_not_an_object(self, document):
        path, payload = document
        payload["extractor"] = []
        self.assert_rejected(path, payload, "extractor must be an object, got []")

    def test_trees_not_a_list(self, document):
        path, payload = document
        payload["model"]["trees"] = {"0": payload["model"]["trees"][0]}
        self.assert_rejected(path, payload, "model.trees must be a list, got {")

    def test_node_missing_value(self, document):
        path, payload = document
        node, depth = payload["model"]["trees"][1]["root"], 0
        while "value" not in node:
            node, depth = node["left"], depth + 1
        del node["value"]
        self.assert_rejected(
            path, payload, f"model.trees[1].root[depth {depth}].value is missing"
        )

    def test_split_on_a_negative_feature(self, document):
        path, payload = document
        payload["model"]["trees"][1]["root"] = {
            "feature": -1, "threshold": 0.5, "left": {"value": 0.0}, "right": {"value": 1.0},
        }
        self.assert_rejected(
            path, payload, "model.trees[1]: node arrays must describe one tree"
        )

    def test_unknown_predictor_kind(self, document):
        path, payload = document
        payload["extractor"]["predictor"]["kind"] = "gru"
        self.assert_rejected(
            path, payload, "extractor.predictor.kind must be 'ar' or 'lstm', got 'gru'"
        )

    def test_value_of_the_wrong_type(self, document):
        path, payload = document
        payload["model"]["n_estimators"] = "5"
        self.assert_rejected(path, payload, "model.n_estimators must be an int, got '5'")

    def test_malformed_coefficients(self, document):
        path, payload = document
        payload["extractor"]["predictor"]["coefficients"] = [0.5, None]
        self.assert_rejected(
            path, payload, "extractor.predictor.coefficients is not a float array"
        )

    def test_constructor_rejection_names_the_section(self, document):
        path, payload = document
        payload["extractor"]["window"] = 0
        self.assert_rejected(path, payload, "extractor: window must be >= 1, got 0")

    def test_coefficients_not_order_plus_one(self, document):
        path, payload = document
        predictor = payload["extractor"]["predictor"]
        predictor["order"] = 3
        predictor["coefficients"] = predictor["coefficients"][:2]
        self.assert_rejected(
            path, payload,
            "extractor.predictor.coefficients must hold order + 1 = 4 numbers, "
            "got shape (2,)",
        )


@pytest.mark.parametrize("ranker", ["lstm"], indirect=True)
class TestMisShapedLSTMPredictor:
    """Each LSTM array is checked at load, not at the first prediction."""

    @pytest.mark.parametrize("name", ["Wx", "Wh", "b", "Wy", "by"])
    def test_array_of_the_wrong_shape(self, ranker, tmp_path, name):
        path = tmp_path / "ranker.json"
        save_lhs_ranker(ranker, path)
        payload = json.loads(path.read_text())
        predictor = payload["extractor"]["predictor"]
        shape = np.shape(predictor["params"][name])
        predictor["params"][name] = [[0.0, 1.0]]
        TestMalformedRanker.assert_rejected(
            path, payload,
            f"extractor.predictor.params: arrays.{name} must have shape {shape}, "
            "got (1, 2)",
        )
