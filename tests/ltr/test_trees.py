"""Tests for the CART regression tree."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.ltr.trees import RegressionTree
from tests.oracles.ltr import tree_predict_reference


class TestFitting:
    def test_perfect_split_on_step_function(self):
        features = np.linspace(0, 1, 40).reshape(-1, 1)
        targets = (features[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=1, min_samples_leaf=2).fit(features, targets)
        assert np.allclose(tree.predict(features), targets)

    def test_depth_zero_is_mean(self):
        features = np.arange(10.0).reshape(-1, 1)
        targets = np.arange(10.0)
        tree = RegressionTree(max_depth=0).fit(features, targets)
        assert np.allclose(tree.predict(features), 4.5)

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(0)
        features = rng.random((200, 3))
        targets = rng.random(200)
        tree = RegressionTree(max_depth=2, min_samples_leaf=1).fit(features, targets)
        assert tree.depth() <= 2

    def test_min_samples_leaf_respected(self):
        features = np.arange(10.0).reshape(-1, 1)
        targets = np.arange(10.0)
        tree = RegressionTree(max_depth=5, min_samples_leaf=4).fit(features, targets)
        # With leaf >= 4 over 10 rows, at most 2 leaves are possible.
        assert tree.leaf_count() <= 2

    def test_constant_target_single_leaf(self):
        features = np.random.default_rng(0).random((30, 2))
        tree = RegressionTree(max_depth=3).fit(features, np.ones(30))
        assert tree.leaf_count() == 1

    def test_constant_feature_no_split(self):
        features = np.ones((30, 1))
        targets = np.random.default_rng(0).random(30)
        tree = RegressionTree(max_depth=3).fit(features, targets)
        assert tree.leaf_count() == 1

    def test_deeper_tree_fits_better(self):
        rng = np.random.default_rng(1)
        features = rng.random((300, 2))
        targets = np.sin(6 * features[:, 0]) + features[:, 1]
        shallow = RegressionTree(max_depth=1).fit(features, targets)
        deep = RegressionTree(max_depth=5).fit(features, targets)
        mse = lambda t: np.mean((t.predict(features) - targets) ** 2)
        assert mse(deep) < mse(shallow)


class TestNewtonLeaves:
    def test_leaf_value_uses_hessian(self):
        features = np.zeros((4, 1))
        gradients = np.array([1.0, 1.0, 1.0, 1.0])
        hessians = np.array([2.0, 2.0, 2.0, 2.0])
        tree = RegressionTree(max_depth=0).fit(features, gradients, hessians=hessians)
        assert tree.predict(features)[0] == pytest.approx(4.0 / 8.0, rel=1e-3)

    def test_hessian_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            RegressionTree().fit(np.zeros((3, 1)), np.zeros(3), hessians=np.zeros(2))


class TestValidation:
    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            RegressionTree().predict(np.zeros((2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            RegressionTree().fit(np.zeros((0, 2)), np.zeros(0))

    def test_1d_features_rejected(self):
        with pytest.raises(ConfigurationError):
            RegressionTree().fit(np.zeros(5), np.zeros(5))

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigurationError):
            RegressionTree().fit(np.zeros((5, 1)), np.zeros(4))

    def test_bad_depth(self):
        with pytest.raises(ConfigurationError):
            RegressionTree(max_depth=-1)

    def test_bad_min_samples(self):
        with pytest.raises(ConfigurationError):
            RegressionTree(min_samples_leaf=0)


class TestPredictEquivalence:
    """Vectorized routing must match the per-row node walk exactly."""

    def test_random_trees(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            features = rng.normal(size=(rng.integers(12, 120), rng.integers(1, 5)))
            targets = rng.normal(size=len(features))
            hessians = rng.random(len(features)) + 0.1 if trial % 2 else None
            tree = RegressionTree(
                max_depth=int(rng.integers(0, 5)), min_samples_leaf=2
            ).fit(features, targets, hessians=hessians)
            probe = rng.normal(size=(64, features.shape[1]))
            np.testing.assert_array_equal(
                tree.predict(probe), tree_predict_reference(tree, probe)
            )

    def test_values_exactly_on_thresholds(self):
        # <= threshold goes left in both implementations.
        features = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        targets = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        tree = RegressionTree(max_depth=2, min_samples_leaf=1).fit(features, targets)
        probe = np.array([[tree._root.threshold]])
        np.testing.assert_array_equal(
            tree.predict(probe), tree_predict_reference(tree, probe)
        )

    def test_stump_and_empty_probe(self):
        features = np.array([[0.0], [1.0]])
        tree = RegressionTree(max_depth=0).fit(features, np.array([1.0, 3.0]))
        np.testing.assert_array_equal(tree.predict(features), [2.0, 2.0])
        assert tree.predict(np.empty((0, 1))).shape == (0,)

    def test_deserialized_tree_predicts(self):
        # Persistence assigns _root directly without fit(); predict must
        # flatten lazily instead of requiring the fit-time arrays.
        rng = np.random.default_rng(5)
        features = rng.normal(size=(40, 3))
        fitted = RegressionTree(max_depth=3, min_samples_leaf=2).fit(
            features, rng.normal(size=40)
        )
        clone = RegressionTree(max_depth=3, min_samples_leaf=2)
        clone._root = fitted._root
        probe = rng.normal(size=(16, 3))
        np.testing.assert_array_equal(clone.predict(probe), fitted.predict(probe))
