"""Tests for the AR(k) fit and the AR next-score predictor."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.timeseries.autoregressive import fit_ar_coefficients, lag_vector
from repro.timeseries.predictor import ARNextScorePredictor


class TestLagVector:
    def test_exact_length(self):
        assert lag_vector(np.array([1.0, 2.0, 3.0]), 3).tolist() == [1, 2, 3]

    def test_truncates_to_last(self):
        assert lag_vector(np.array([1.0, 2.0, 3.0, 4.0]), 2).tolist() == [3, 4]

    def test_pads_short(self):
        assert lag_vector(np.array([5.0]), 3).tolist() == [5, 5, 5]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            lag_vector(np.array([]), 2)


class TestFitCoefficients:
    def test_recovers_exact_ar1(self):
        rng = np.random.default_rng(0)
        sequences = [rng.random(4) for _ in range(50)]
        targets = [0.8 * s[-1] + 0.1 for s in sequences]
        coefficients = fit_ar_coefficients(sequences, targets, order=1)
        assert np.isclose(coefficients[0], 0.1, atol=1e-6)
        assert np.isclose(coefficients[1], 0.8, atol=1e-6)

    def test_recovers_ar2(self):
        rng = np.random.default_rng(1)
        sequences = [rng.random(5) for _ in range(80)]
        targets = [0.5 * s[-1] - 0.3 * s[-2] for s in sequences]
        coefficients = fit_ar_coefficients(sequences, targets, order=2)
        assert np.allclose(coefficients, [0.0, -0.3, 0.5], atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_ar_coefficients([], [], order=2)

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_ar_coefficients([np.ones(3)], [1.0, 2.0], order=2)

    def test_bad_order(self):
        with pytest.raises(ConfigurationError):
            fit_ar_coefficients([np.ones(3)], [1.0], order=0)


class TestARPredictor:
    def test_predict_linear_trend(self):
        sequences = [np.array([0.1 * i, 0.1 * i + 0.1, 0.1 * i + 0.2]) for i in range(20)]
        targets = [s[-1] + 0.1 for s in sequences]
        model = ARNextScorePredictor(order=2).fit(sequences, targets)
        prediction = model.predict([np.array([0.5, 0.6, 0.7])])[0]
        assert np.isclose(prediction, 0.8, atol=1e-4)

    def test_mse_near_zero_on_exact_data(self):
        rng = np.random.default_rng(2)
        sequences = [rng.random(4) for _ in range(30)]
        targets = [0.6 * s[-1] + 0.2 * s[-2] for s in sequences]
        model = ARNextScorePredictor(order=2).fit(sequences, targets)
        assert np.mean((model.predict(sequences) - targets) ** 2) < 1e-10

    def test_predictions_are_the_fitted_linear_model(self):
        rng = np.random.default_rng(3)
        sequences = [rng.random(int(rng.integers(1, 6))) for _ in range(25)]
        targets = rng.random(25)
        model = ARNextScorePredictor(order=3).fit(sequences, targets)
        np.testing.assert_array_equal(
            model.coefficients, fit_ar_coefficients(sequences, targets, order=3)
        )
        design = np.array([[1.0, *lag_vector(s, 3)] for s in sequences])
        np.testing.assert_array_equal(model.predict(sequences), design @ model.coefficients)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            ARNextScorePredictor().predict([np.ones(3)])

    def test_bad_order(self):
        with pytest.raises(ConfigurationError):
            ARNextScorePredictor(order=0)

    def test_repr(self):
        assert repr(ARNextScorePredictor()) == "ARNextScorePredictor(order=3, unfitted)"
