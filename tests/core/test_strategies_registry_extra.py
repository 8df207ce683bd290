"""Extra coverage: case-insensitive strategy lookup and strategy determinism."""

import numpy as np
import pytest

from repro.core.strategies import QBC, BALD, Entropy, Random
from repro.models.mlp import MLPClassifier

from .helpers import make_context


class TestRegistryCollisions:
    def test_keys_case_insensitive(self):
        from repro.core.strategies import create_strategy

        assert isinstance(create_strategy("RaNdOm"), Random)


class TestStochasticStrategyDeterminism:
    def test_qbc_deterministic_given_context_rng(self, fitted_classifier, text_dataset):
        scores_a = QBC(committee_size=2).scores(
            fitted_classifier, make_context(text_dataset, seed=4)
        )
        scores_b = QBC(committee_size=2).scores(
            fitted_classifier, make_context(text_dataset, seed=4)
        )
        assert np.allclose(scores_a, scores_b)

    def test_qbc_varies_with_rng(self, fitted_classifier, text_dataset):
        scores_a = QBC(committee_size=2).scores(
            fitted_classifier, make_context(text_dataset, seed=4)
        )
        scores_b = QBC(committee_size=2).scores(
            fitted_classifier, make_context(text_dataset, seed=5)
        )
        assert not np.allclose(scores_a, scores_b)

    def test_bald_deterministic_given_context_rng(self, text_dataset):
        model = MLPClassifier(epochs=8, hidden_dim=8, seed=0).fit(
            text_dataset.subset(range(120))
        )
        scores_a = BALD(n_draws=4).scores(model, make_context(text_dataset, seed=9))
        scores_b = BALD(n_draws=4).scores(model, make_context(text_dataset, seed=9))
        assert np.allclose(scores_a, scores_b)


class TestRandomIndependentOfModel:
    def test_random_ignores_model(self, fitted_classifier, text_dataset):
        scores_with_model = Random().scores(
            fitted_classifier, make_context(text_dataset, seed=2)
        )
        scores_without = Random().scores(None, make_context(text_dataset, seed=2))
        assert np.allclose(scores_with_model, scores_without)

    def test_entropy_requires_model(self, text_dataset):
        from repro.exceptions import StrategyError

        with pytest.raises(StrategyError):
            Entropy().scores(None, make_context(text_dataset))
