"""Tests for the shared numerical building blocks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ConfigurationError
from repro.models.layers import (
    Adam,
    dropout_mask,
    glorot_init,
    minibatches,
    one_hot,
    softmax,
)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        logits = np.array([1.0, 2.0, 3.0])
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_large_logits_stable(self):
        probs = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(probs).all()
        assert probs[0] > 0.999

    @given(
        hnp.arrays(
            np.float64, (4, 5),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_softmax_property(self, logits):
        probs = softmax(logits)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0)


class TestCrossEntropyAndOneHot:
    def test_one_hot(self):
        encoded = one_hot(np.array([1, 0, 2]), 3)
        assert encoded.tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]


class TestDropout:
    def test_zero_rate_all_ones(self, rng):
        assert (dropout_mask(rng, (5, 5), 0.0) == 1.0).all()

    def test_scaling_preserves_expectation(self, rng):
        mask = dropout_mask(rng, (20000,), 0.4)
        assert np.isclose(mask.mean(), 1.0, atol=0.03)

    def test_values_are_zero_or_scaled(self, rng):
        mask = dropout_mask(rng, (100,), 0.5)
        assert set(np.unique(mask)) <= {0.0, 2.0}

    def test_bad_rate(self, rng):
        with pytest.raises(ConfigurationError):
            dropout_mask(rng, (2,), 1.0)


class TestGlorot:
    def test_shape_default(self, rng):
        assert glorot_init(rng, 4, 6).shape == (4, 6)

    def test_shape_explicit(self, rng):
        assert glorot_init(rng, 4, 6, 2, 3, 4).shape == (2, 3, 4)

    def test_bounds(self, rng):
        limit = np.sqrt(6.0 / 20)
        weights = glorot_init(rng, 10, 10)
        assert np.abs(weights).max() <= limit


class TestAdam:
    def test_minimises_quadratic(self):
        params = {"x": np.array([5.0])}
        optimizer = Adam(learning_rate=0.1)
        for _ in range(300):
            optimizer.update(params, {"x": 2 * params["x"]})
        assert abs(params["x"][0]) < 1e-2

    def test_unknown_parameter_rejected(self):
        optimizer = Adam()
        with pytest.raises(ConfigurationError):
            optimizer.update({"x": np.zeros(1)}, {"y": np.zeros(1)})

    def test_bad_learning_rate(self):
        with pytest.raises(ConfigurationError):
            Adam(learning_rate=0.0)

    def test_partial_grads_allowed(self):
        params = {"a": np.zeros(2), "b": np.zeros(2)}
        Adam().update(params, {"a": np.ones(2)})
        assert (params["b"] == 0).all()


class TestMinibatches:
    def test_covers_all_indices(self, rng):
        batches = minibatches(10, 3, rng)
        assert sorted(np.concatenate(batches).tolist()) == list(range(10))

    def test_batch_sizes(self, rng):
        batches = minibatches(10, 3, rng)
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_bad_batch_size(self, rng):
        with pytest.raises(ConfigurationError):
            minibatches(10, 0, rng)
