"""Tests for the numpy LSTM regressor, including a BPTT gradient check."""

import re

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.models.lstm import LSTMRegressor
from tests.oracles.models import lstm_bptt, lstm_unroll


def linear_trend_data(n=40, length=5, seed=0):
    rng = np.random.default_rng(seed)
    sequences, targets = [], []
    for _ in range(n):
        start = rng.uniform(0, 0.5)
        step = rng.uniform(-0.05, 0.1)
        series = start + step * np.arange(length) + rng.normal(0, 0.01, length)
        sequences.append(series)
        targets.append(start + step * length)
    return sequences, targets


class TestFitPredict:
    def test_learns_linear_trends(self):
        sequences, targets = linear_trend_data()
        model = LSTMRegressor(hidden_dim=8, epochs=80, seed=0).fit(sequences, targets)
        assert model.mse(sequences, targets) < 0.01

    def test_beats_constant_predictor(self):
        sequences, targets = linear_trend_data(seed=3)
        model = LSTMRegressor(hidden_dim=8, epochs=80, seed=0).fit(sequences, targets)
        baseline = np.mean((np.asarray(targets) - np.mean(targets)) ** 2)
        assert model.mse(sequences, targets) < baseline * 0.5

    def test_variable_length_sequences(self):
        rng = np.random.default_rng(0)
        sequences = [rng.random(rng.integers(2, 8)) for _ in range(20)]
        targets = [s[-1] for s in sequences]
        model = LSTMRegressor(epochs=10, seed=0).fit(sequences, targets)
        assert model.predict(sequences).shape == (20,)

    def test_deterministic(self):
        sequences, targets = linear_trend_data(n=10)
        a = LSTMRegressor(epochs=5, seed=4).fit(sequences, targets).predict(sequences)
        b = LSTMRegressor(epochs=5, seed=4).fit(sequences, targets).predict(sequences)
        assert np.allclose(a, b)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LSTMRegressor().predict([np.ones(3)])


class TestGradient:
    def test_bptt_matches_finite_differences(self):
        sequences = [np.array([0.2, 0.5, 0.3, 0.8])]
        targets = [0.6]
        model = LSTMRegressor(hidden_dim=4, epochs=1, seed=0)
        params = model._init_params(np.random.default_rng(0))

        def loss() -> float:
            h_last, _ = lstm_unroll(model, params, sequences[0])
            prediction = float(h_last @ params["Wy"][:, 0] + params["by"][0])
            return (prediction - targets[0]) ** 2

        grads = {name: np.zeros_like(v) for name, v in params.items()}
        h_last, caches = lstm_unroll(model, params, sequences[0])
        prediction = float(h_last @ params["Wy"][:, 0] + params["by"][0])
        derr = 2.0 * (prediction - targets[0])
        grads["Wy"][:, 0] += derr * h_last
        grads["by"][0] += derr
        lstm_bptt(model, params, caches, derr * params["Wy"][:, 0], grads)

        rng = np.random.default_rng(1)
        epsilon = 1e-6
        for name, value in params.items():
            flat = value.reshape(-1)
            flat_grad = grads[name].reshape(-1)
            probe = rng.choice(len(flat), size=min(8, len(flat)), replace=False)
            for k in probe:
                original = flat[k]
                flat[k] = original + epsilon
                up = loss()
                flat[k] = original - epsilon
                down = loss()
                flat[k] = original
                numeric = (up - down) / (2 * epsilon)
                assert np.isclose(flat_grad[k], numeric, rtol=1e-4, atol=1e-8), (
                    f"{name}[{k}]"
                )


class TestValidation:
    def test_empty_sequences_rejected(self):
        with pytest.raises(ConfigurationError):
            LSTMRegressor().fit([], [])

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigurationError):
            LSTMRegressor().fit([np.ones(3)], [1.0, 2.0])

    def test_empty_sequence_element_rejected(self):
        with pytest.raises(ConfigurationError):
            LSTMRegressor().fit([np.array([])], [0.0])

    def test_bad_hidden_dim(self):
        with pytest.raises(ConfigurationError):
            LSTMRegressor(hidden_dim=0)

    def test_predict_empty_sequence_rejected(self):
        sequences, targets = linear_trend_data(n=5)
        model = LSTMRegressor(epochs=2).fit(sequences, targets)
        with pytest.raises(ConfigurationError):
            model.predict([np.array([])])

    def test_predict_padded_rejects_a_length_past_the_width(self):
        sequences, targets = linear_trend_data(n=5)
        model = LSTMRegressor(epochs=2).fit(sequences, targets)
        message = "length 9 exceeds the padded width 3"
        with pytest.raises(ConfigurationError, match=message):
            model.predict_padded(np.ones((2, 3)), np.array([3, 9]))


class TestSetParams:
    """A parameter state is checked array by array against ``hidden_dim``."""

    @pytest.fixture(scope="class")
    def fitted(self):
        return LSTMRegressor(hidden_dim=3, epochs=2).fit(*linear_trend_data(n=5))

    @pytest.mark.parametrize(
        "name, shape",
        [("Wx", (1, 12)), ("Wh", (3, 12)), ("b", (12,)), ("Wy", (3, 1)), ("by", (1,))],
    )
    def test_mis_shaped_array_rejected(self, fitted, name, shape):
        arrays = dict(fitted.get_params()["arrays"], **{name: [[0.0, 1.0]]})
        message = f"arrays.{name} must have shape {shape}, got (1, 2)"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            LSTMRegressor(hidden_dim=3).set_params({"arrays": arrays, "meta": {}})

    def test_missing_array_rejected(self, fitted):
        arrays = dict(fitted.get_params()["arrays"])
        del arrays["Wy"]
        with pytest.raises(ConfigurationError, match="no array 'Wy'"):
            LSTMRegressor(hidden_dim=3).set_params({"arrays": arrays, "meta": {}})

    def test_other_hidden_dim_rejected(self, fitted):
        message = re.escape("arrays.Wx must have shape (1, 16)")
        with pytest.raises(ConfigurationError, match=message):
            LSTMRegressor(hidden_dim=4).set_params(fitted.get_params())
