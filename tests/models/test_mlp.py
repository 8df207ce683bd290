"""Tests for the MC-dropout MLP classifier."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.models.mlp import MLPClassifier


@pytest.fixture(scope="module")
def fitted_mlp(text_dataset):
    return MLPClassifier(epochs=25, hidden_dim=16, seed=0).fit(
        text_dataset.subset(range(300))
    )


class TestFitPredict:
    def test_learns(self, fitted_mlp, text_dataset):
        test = text_dataset.subset(range(400, 600))
        assert fitted_mlp.accuracy(test) > 0.7

    def test_probabilities_simplex(self, fitted_mlp, text_dataset):
        probs = fitted_mlp.predict_proba(text_dataset.subset(range(10)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_deterministic_eval(self, fitted_mlp, text_dataset):
        subset = text_dataset.subset(range(5))
        assert np.allclose(
            fitted_mlp.predict_proba(subset), fitted_mlp.predict_proba(subset)
        )

    def test_empty_fit_rejected(self, text_dataset):
        with pytest.raises(ConfigurationError):
            MLPClassifier().fit(text_dataset.subset([]))

    def test_not_fitted(self, text_dataset):
        with pytest.raises(NotFittedError):
            MLPClassifier().predict_proba(text_dataset)


class TestMCSampling:
    def test_shape(self, fitted_mlp, text_dataset, rng):
        draws = fitted_mlp.predict_proba_samples(text_dataset.subset(range(7)), 5, rng)
        assert draws.shape == (5, 7, 2)

    def test_draws_vary(self, fitted_mlp, text_dataset, rng):
        draws = fitted_mlp.predict_proba_samples(text_dataset.subset(range(7)), 4, rng)
        assert not np.allclose(draws[0], draws[1])

    def test_each_draw_is_simplex(self, fitted_mlp, text_dataset, rng):
        draws = fitted_mlp.predict_proba_samples(text_dataset.subset(range(7)), 3, rng)
        assert np.allclose(draws.sum(axis=2), 1.0)

    def test_zero_draws_rejected(self, fitted_mlp, text_dataset, rng):
        with pytest.raises(ConfigurationError):
            fitted_mlp.predict_proba_samples(text_dataset.subset(range(2)), 0, rng)

    def test_mean_draw_near_deterministic(self, fitted_mlp, text_dataset, rng):
        subset = text_dataset.subset(range(30))
        draws = fitted_mlp.predict_proba_samples(subset, 200, rng)
        deterministic = fitted_mlp.predict_proba(subset)
        assert np.abs(draws.mean(axis=0) - deterministic).mean() < 0.06


class TestEGL:
    def test_matches_numerical_gradient(self, text_dataset):
        """EGL factorised norms must match finite-difference gradients."""
        train = text_dataset.subset(range(120))
        model = MLPClassifier(epochs=10, hidden_dim=6, seed=0).fit(train)
        subset = text_dataset.subset(range(3))
        scores = model.expected_gradient_lengths(subset)
        features = model._features(subset)
        probs = model.predict_proba(subset)
        params = model._params
        epsilon = 1e-6
        for i in range(3):
            expected = 0.0
            for label in range(2):
                squared = 0.0
                for name in ("W1", "b1", "W2", "b2"):
                    grad = np.zeros_like(params[name])
                    it = np.nditer(params[name], flags=["multi_index"])
                    while not it.finished:
                        idx = it.multi_index
                        original = params[name][idx]
                        params[name][idx] = original + epsilon
                        up, _, _ = model._forward(features[i : i + 1])
                        params[name][idx] = original - epsilon
                        down, _, _ = model._forward(features[i : i + 1])
                        params[name][idx] = original
                        loss_up = -np.log(up[0, label])
                        loss_down = -np.log(down[0, label])
                        grad[idx] = (loss_up - loss_down) / (2 * epsilon)
                        it.iternext()
                    squared += (grad**2).sum()
                expected += probs[i, label] * np.sqrt(squared)
            assert np.isclose(scores[i], expected, rtol=1e-3)

    def test_scores_nonnegative(self, fitted_mlp, text_dataset):
        scores = fitted_mlp.expected_gradient_lengths(text_dataset.subset(range(20)))
        assert (scores >= 0).all()


class TestValidation:
    def test_bad_hidden(self):
        with pytest.raises(ConfigurationError):
            MLPClassifier(hidden_dim=0)

    def test_bad_dropout(self):
        with pytest.raises(ConfigurationError):
            MLPClassifier(dropout=1.0)

    def test_embedding_size_mismatch(self, text_dataset):
        bad = np.zeros((3, 8))
        model = MLPClassifier(embedding_matrix=bad)
        with pytest.raises(ConfigurationError):
            model.fit(text_dataset.subset(range(10)))

    def test_clone_shares_embedding(self, fitted_mlp):
        clone = fitted_mlp.clone()
        assert clone.embedding_matrix is fitted_mlp.embedding_matrix
