"""Tests for the NextScorePredictor protocol implementations."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.timeseries.predictor import (
    ARNextScorePredictor,
    LSTMNextScorePredictor,
    NextScorePredictor,
)


def trend_sequences(n=30, seed=0):
    rng = np.random.default_rng(seed)
    sequences = []
    for _ in range(n):
        start = rng.uniform(0.2, 0.5)
        step = rng.uniform(-0.03, 0.06)
        sequences.append(start + step * np.arange(5))
    return sequences


@pytest.mark.parametrize(
    "predictor_factory",
    [lambda: ARNextScorePredictor(order=2), lambda: LSTMNextScorePredictor(epochs=60)],
    ids=["ar", "lstm"],
)
class TestPredictors:
    def test_fit_predict_shape(self, predictor_factory):
        sequences = trend_sequences()
        targets = [s[-1] for s in sequences]
        predictor = predictor_factory().fit([s[:-1] for s in sequences], targets)
        assert predictor.predict([s[:-1] for s in sequences]).shape == (len(sequences),)

    def test_prediction_tracks_trend(self, predictor_factory):
        sequences = trend_sequences(n=60)
        inputs = [s[:-1] for s in sequences]
        targets = [s[-1] for s in sequences]
        predictor = predictor_factory().fit(inputs, targets)
        predictions = predictor.predict(inputs)
        baseline = np.mean((np.asarray(targets) - np.mean(targets)) ** 2)
        mse = np.mean((predictions - np.asarray(targets)) ** 2)
        assert mse < baseline * 0.5

    def test_fit_from_history(self, predictor_factory):
        sequences = trend_sequences(n=25)
        predictor = predictor_factory().fit_from_history(sequences)
        assert isinstance(predictor, NextScorePredictor)
        assert np.isfinite(predictor.predict([sequences[0][:-1]])).all()

    def test_fit_from_history_skips_short(self, predictor_factory):
        sequences = [np.array([0.5])] + trend_sequences(n=10)
        predictor = predictor_factory().fit_from_history(sequences)
        assert np.isfinite(predictor.predict([np.array([0.1, 0.2])])).all()

    def test_fit_from_history_all_short_rejected(self, predictor_factory):
        with pytest.raises(ConfigurationError):
            predictor_factory().fit_from_history([np.array([0.5]), np.array([0.2])])

    def test_predict_padded_rejects_a_length_past_the_width(self, predictor_factory):
        sequences = trend_sequences(n=10)
        predictor = predictor_factory().fit_from_history(sequences)
        with pytest.raises(ConfigurationError, match="exceeds the padded width 3"):
            predictor.predict_padded(np.ones((2, 3)), np.array([3, 9]))

    def test_empty_batch_predicts_nothing(self, predictor_factory):
        predictor = predictor_factory().fit_from_history(trend_sequences(n=10))
        assert predictor.predict([]).shape == (0,)
        empty = predictor.predict_padded(np.empty((0, 3)), np.empty(0, dtype=np.int64))
        assert empty.shape == (0,)
