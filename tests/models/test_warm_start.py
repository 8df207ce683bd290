"""Warm-start and parameter-state contracts across the model stack.

Every model family must honour the same protocol: ``fit(dataset, init_from=prev)`` resumes deterministically
from the previous parameters (same seed => same result), trains fewer
epochs, and bumps the fit generation; ``get_params``/``set_params``
round-trip the fitted state byte for byte through JSON.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.models import (
    BiLSTMCRF,
    LSTMRegressor,
    LinearChainCRF,
    LinearSoftmax,
    MLPClassifier,
    TextCNN,
    fit_generation,
)

CLASSIFIER_FACTORIES = {
    "linear": lambda: LinearSoftmax(epochs=4, batch_size=16, seed=3),
    "mlp": lambda: MLPClassifier(epochs=6, hidden_dim=8, seed=3),
    "textcnn": lambda: TextCNN(embedding_dim=8, filters=4, epochs=4, seed=3),
}

LABELER_FACTORIES = {
    "crf": lambda: LinearChainCRF(epochs=3, seed=3),
    "bilstm_crf": lambda: BiLSTMCRF(
        embedding_dim=6, hidden_dim=5, epochs=2, seed=3
    ),
}


def _grown(dataset, small: int = 60, large: int = 90):
    return dataset.subset(range(small)), dataset.subset(range(large))


@pytest.fixture(params=sorted(CLASSIFIER_FACTORIES))
def classifier_factory(request):
    return CLASSIFIER_FACTORIES[request.param]


@pytest.fixture(params=sorted(LABELER_FACTORIES))
def labeler_factory(request):
    return LABELER_FACTORIES[request.param]


class TestClassifierWarmStart:
    def test_warm_fit_is_deterministic(self, classifier_factory, text_dataset):
        small, large = _grown(text_dataset)
        base = classifier_factory().fit(small)
        probe = text_dataset.subset(range(400, 450))
        first = classifier_factory().fit(large, init_from=base)
        second = classifier_factory().fit(large, init_from=base)
        np.testing.assert_array_equal(
            first.predict_proba(probe), second.predict_proba(probe)
        )

    def test_warm_differs_from_cold(self, classifier_factory, text_dataset):
        # Warm fits resume from trained parameters and run fewer epochs,
        # so they follow a different optimisation trajectory than cold.
        small, large = _grown(text_dataset)
        base = classifier_factory().fit(small)
        probe = text_dataset.subset(range(400, 450))
        warm = classifier_factory().fit(large, init_from=base)
        cold = classifier_factory().fit(large)
        assert not np.array_equal(
            warm.predict_proba(probe), cold.predict_proba(probe)
        )

    def test_warm_quality_parity(self, classifier_factory, text_dataset):
        small, large = _grown(text_dataset, small=150, large=300)
        base = classifier_factory().fit(small)
        probe = text_dataset.subset(range(400, 600))
        warm = classifier_factory().fit(large, init_from=base)
        cold = classifier_factory().fit(large)
        assert abs(warm.accuracy(probe) - cold.accuracy(probe)) <= 0.15

    def test_fit_generation_increments(self, classifier_factory, text_dataset):
        small, large = _grown(text_dataset)
        model = classifier_factory()
        assert fit_generation(model) == 0
        model.fit(small)
        assert fit_generation(model) == 1
        model.fit(large, init_from=model)
        assert fit_generation(model) == 2

    def test_param_state_round_trips_exactly(
        self, classifier_factory, text_dataset
    ):
        small, _ = _grown(text_dataset)
        fitted = classifier_factory().fit(small)
        probe = text_dataset.subset(range(400, 450))
        # Through JSON, as snapshots store it: must stay byte-identical.
        state = json.loads(json.dumps(fitted.get_params()))
        restored = classifier_factory().set_params(state)
        np.testing.assert_array_equal(
            fitted.predict_proba(probe), restored.predict_proba(probe)
        )

    def test_unfitted_init_from_raises(self, classifier_factory, text_dataset):
        small, _ = _grown(text_dataset)
        with pytest.raises(NotFittedError):
            classifier_factory().fit(small, init_from=classifier_factory())

    def test_get_params_requires_fit(self, classifier_factory):
        with pytest.raises(NotFittedError):
            classifier_factory().get_params()


class TestLabelerWarmStart:
    def test_warm_fit_is_deterministic(self, labeler_factory, ner_dataset):
        small, large = _grown(ner_dataset, small=40, large=70)
        base = labeler_factory().fit(small)
        probe = ner_dataset.subset(range(100, 130))
        first = labeler_factory().fit(large, init_from=base)
        second = labeler_factory().fit(large, init_from=base)
        for a, b in zip(first.predict_tags(probe), second.predict_tags(probe)):
            np.testing.assert_array_equal(a, b)

    def test_param_state_round_trips_exactly(self, labeler_factory, ner_dataset):
        small, _ = _grown(ner_dataset, small=40, large=70)
        fitted = labeler_factory().fit(small)
        probe = ner_dataset.subset(range(100, 130))
        state = json.loads(json.dumps(fitted.get_params()))
        restored = labeler_factory().set_params(state)
        for a, b in zip(
            fitted.predict_tags(probe), restored.predict_tags(probe)
        ):
            np.testing.assert_array_equal(a, b)

    def test_fit_generation_increments(self, labeler_factory, ner_dataset):
        small, large = _grown(ner_dataset, small=40, large=70)
        model = labeler_factory()
        assert fit_generation(model) == 0
        model.fit(small)
        assert fit_generation(model) == 1
        model.fit(large, init_from=model)
        assert fit_generation(model) == 2


class TestLSTMWarmStart:
    def _data(self, count: int = 20, length: int = 8):
        rng = np.random.default_rng(11)
        walks = np.cumsum(rng.normal(size=(count, length + 1)), axis=1)
        return [w[:-1] for w in walks], [float(w[-1]) for w in walks]

    def test_warm_fit_is_deterministic(self):
        sequences, targets = self._data()
        base = LSTMRegressor(hidden_dim=4, epochs=8, seed=5).fit(
            sequences[:10], targets[:10]
        )
        first = LSTMRegressor(hidden_dim=4, epochs=8, seed=5).fit(
            sequences, targets, init_from=base
        )
        second = LSTMRegressor(hidden_dim=4, epochs=8, seed=5).fit(
            sequences, targets, init_from=base
        )
        np.testing.assert_array_equal(
            first.predict(sequences), second.predict(sequences)
        )

    def test_param_state_round_trips_exactly(self):
        sequences, targets = self._data()
        fitted = LSTMRegressor(hidden_dim=4, epochs=8, seed=5).fit(
            sequences, targets
        )
        state = json.loads(json.dumps(fitted.get_params()))
        restored = LSTMRegressor(hidden_dim=4, epochs=8, seed=5).set_params(state)
        np.testing.assert_array_equal(
            fitted.predict(sequences), restored.predict(sequences)
        )

    def test_hidden_dim_mismatch_raises(self):
        sequences, targets = self._data()
        base = LSTMRegressor(hidden_dim=4, epochs=4, seed=5).fit(
            sequences, targets
        )
        with pytest.raises(ConfigurationError, match="hidden_dim"):
            LSTMRegressor(hidden_dim=6, epochs=4, seed=5).fit(
                sequences, targets, init_from=base
            )


class TestWarmStartErrors:
    def test_vocab_mismatch_raises(self, text_dataset, multiclass_dataset):
        base = LinearSoftmax(epochs=2, seed=0).fit(text_dataset.subset(range(60)))
        with pytest.raises(ConfigurationError):
            LinearSoftmax(epochs=2, seed=0).fit(
                multiclass_dataset.subset(range(60)), init_from=base
            )

    def test_wrong_type_init_from_raises(self, text_dataset):
        base = LinearSoftmax(epochs=2, seed=0).fit(text_dataset.subset(range(60)))
        with pytest.raises(ConfigurationError):
            MLPClassifier(epochs=2, seed=0).fit(
                text_dataset.subset(range(60)), init_from=base
            )

    def test_warm_epochs_validation(self):
        with pytest.raises(ConfigurationError):
            LinearSoftmax(epochs=4, warm_epochs=0)
