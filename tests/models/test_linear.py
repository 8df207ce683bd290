"""Tests for the LinearSoftmax classifier, including its closed-form EGL."""

import threading

import numpy as np
import pytest

from repro.data.text import TextCorpusSpec, make_text_corpus
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.ioutil import encode_array
from repro.models.layers import softmax
from repro.models.linear import EGL_BLOCK_ROWS, LinearSoftmax
from tests.data.test_datasets import scoring_buffer_is_clear


def dense_probabilities(model, dataset):
    """``softmax(bag_of_words() @ W + b)`` over a freshly built matrix."""
    return softmax(dataset.bag_of_words() @ model.weights + model._params["b"])


def dense_gradient_lengths(model, dataset):
    """Eq. (5) with the squared features summed as one dense matrix."""
    features = dataset.bag_of_words()
    probabilities = dense_probabilities(model, dataset)
    feature_norms = np.sqrt((features**2).sum(axis=1) + 1.0)
    squared = (probabilities**2).sum(axis=1, keepdims=True) - 2 * probabilities + 1.0
    residual_norms = np.sqrt(np.clip(squared, 0.0, None))
    return (probabilities * residual_norms).sum(axis=1) * feature_norms


@pytest.fixture(scope="module")
def egl_pool():
    """A 3,000-row, 3-class pool and a model fitted on its first 300 rows."""
    spec = TextCorpusSpec(
        name="egl-pool", num_classes=3, size=3_000, background_vocab=200,
        facets_per_class=4, facet_vocab=6, min_length=3, max_length=15,
    )
    pool = make_text_corpus(spec, seed_or_rng=5)
    return LinearSoftmax(epochs=3, seed=0).fit(pool.subset(range(300))), pool


class TestFitPredict:
    def test_learns_separable_data(self, text_dataset):
        train = text_dataset.subset(range(400))
        test = text_dataset.subset(range(400, 600))
        model = LinearSoftmax(epochs=20, seed=0).fit(train)
        assert model.accuracy(test) > 0.75

    def test_probabilities_shape_and_simplex(self, fitted_classifier, text_dataset):
        probs = fitted_classifier.predict_proba(text_dataset.subset(range(20)))
        assert probs.shape == (20, 2)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_predict_matches_argmax(self, fitted_classifier, text_dataset):
        subset = text_dataset.subset(range(15))
        probs = fitted_classifier.predict_proba(subset)
        assert np.array_equal(fitted_classifier.predict(subset), probs.argmax(axis=1))

    def test_deterministic_given_seed(self, text_dataset):
        train = text_dataset.subset(range(100))
        a = LinearSoftmax(epochs=5, seed=3).fit(train)
        b = LinearSoftmax(epochs=5, seed=3).fit(train)
        assert np.allclose(a.weights, b.weights)

    def test_different_seeds_differ(self, text_dataset):
        train = text_dataset.subset(range(100))
        a = LinearSoftmax(epochs=3, seed=1).fit(train)
        b = LinearSoftmax(epochs=3, seed=2).fit(train)
        assert not np.allclose(a.weights, b.weights)

    def test_refit_resets(self, text_dataset):
        model = LinearSoftmax(epochs=5, seed=0)
        model.fit(text_dataset.subset(range(100)))
        first = model.weights.copy()
        model.fit(text_dataset.subset(range(100)))
        assert np.allclose(model.weights, first)

    def test_empty_dataset_rejected(self, text_dataset):
        with pytest.raises(ConfigurationError):
            LinearSoftmax().fit(text_dataset.subset([]))

    def test_accuracy_on_empty_is_zero(self, fitted_classifier, text_dataset):
        assert fitted_classifier.accuracy(text_dataset.subset([])) == 0.0


class TestNotFitted:
    def test_predict_before_fit(self, text_dataset):
        with pytest.raises(NotFittedError):
            LinearSoftmax().predict_proba(text_dataset)

    def test_egl_before_fit(self, text_dataset):
        with pytest.raises(NotFittedError):
            LinearSoftmax().expected_gradient_lengths(text_dataset)

    def test_weights_before_fit(self):
        with pytest.raises(NotFittedError):
            LinearSoftmax().weights


class TestClone:
    def test_clone_is_unfitted(self, fitted_classifier):
        clone = fitted_classifier.clone()
        with pytest.raises(NotFittedError):
            clone.weights

    def test_clone_copies_hyperparameters(self):
        model = LinearSoftmax(epochs=7, learning_rate=0.3, l2=0.01, batch_size=16, seed=5)
        clone = model.clone()
        assert (clone.epochs, clone.learning_rate, clone.l2, clone.batch_size, clone.seed) == (
            7, 0.3, 0.01, 16, 5,
        )


class TestEGL:
    def test_matches_brute_force(self, fitted_classifier, text_dataset):
        """The closed form must equal explicit per-label gradient norms."""
        subset = text_dataset.subset(range(10))
        scores = fitted_classifier.expected_gradient_lengths(subset)
        features = subset.bag_of_words()
        probs = fitted_classifier.predict_proba(subset)
        for i in range(10):
            x = features[i]
            expected = 0.0
            for label in range(2):
                residual = probs[i].copy()
                residual[label] -= 1.0
                grad_w = np.outer(x, residual)
                grad_norm = np.sqrt((grad_w**2).sum() + (residual**2).sum())
                expected += probs[i, label] * grad_norm
            assert np.isclose(scores[i], expected, rtol=1e-10)

    @pytest.mark.parametrize(
        "rows",
        [0, 1, EGL_BLOCK_ROWS - 1, EGL_BLOCK_ROWS, EGL_BLOCK_ROWS + 1, 3_000],
    )
    def test_blocked_norms_match_the_dense_formula(self, egl_pool, rows):
        model, pool = egl_pool
        subset = pool.subset(range(rows))
        scores = model.expected_gradient_lengths(subset)
        expected = dense_gradient_lengths(model, subset)
        assert scores.shape == expected.shape == (rows,)
        assert scores.tobytes() == expected.tobytes()

    def test_scores_nonnegative(self, fitted_classifier, text_dataset):
        scores = fitted_classifier.expected_gradient_lengths(text_dataset.subset(range(50)))
        assert (scores >= 0).all()

    def test_confident_samples_score_lower(self, fitted_classifier, text_dataset):
        subset = text_dataset.subset(range(200))
        scores = fitted_classifier.expected_gradient_lengths(subset)
        confidence = fitted_classifier.predict_proba(subset).max(axis=1)
        most_confident = confidence > np.quantile(confidence, 0.9)
        least_confident = confidence < np.quantile(confidence, 0.1)
        assert scores[least_confident].mean() > scores[most_confident].mean()


class TestScoringBuffer:
    """``predict_proba`` and EGL score through the reused feature buffer."""

    def test_shrinking_pools_at_two_widths_match_the_dense_path(
        self, fitted_classifier, text_dataset, egl_pool
    ):
        egl_model, egl_dataset = egl_pool
        assert len(egl_dataset.vocab) != len(text_dataset.vocab)
        for removed in range(0, 600, 150):  # one batch leaves the pool per round
            for model, dataset in ((egl_model, egl_dataset), (fitted_classifier, text_dataset)):
                pool = dataset.subset(range(removed, len(dataset)))
                probabilities = model.predict_proba(pool)
                assert probabilities.tobytes() == dense_probabilities(model, pool).tobytes()
                lengths = model.expected_gradient_lengths(pool)
                assert lengths.tobytes() == dense_gradient_lengths(model, pool).tobytes()
                assert scoring_buffer_is_clear()

    def test_an_empty_dataset_scores_nothing(self, fitted_classifier, text_dataset):
        empty = text_dataset.subset([])
        probabilities = fitted_classifier.predict_proba(empty)
        assert probabilities.shape == (0, 2)
        assert probabilities.tobytes() == dense_probabilities(fitted_classifier, empty).tobytes()
        assert fitted_classifier.expected_gradient_lengths(empty).shape == (0,)
        assert scoring_buffer_is_clear()

    @pytest.mark.parametrize("score", ["predict_proba", "expected_gradient_lengths"])
    def test_a_vocabulary_mismatch_leaves_the_buffer_clear(
        self, fitted_classifier, egl_pool, score
    ):
        _, other = egl_pool
        with pytest.raises(ConfigurationError, match="vocabulary mismatch"):
            getattr(fitted_classifier, score)(other)
        assert scoring_buffer_is_clear()

    @pytest.mark.parametrize("score", ["predict_proba", "expected_gradient_lengths"])
    def test_an_out_of_range_id_leaves_the_buffer_clear(
        self, fitted_classifier, text_dataset, score
    ):
        dataset = text_dataset.subset(range(20))
        dataset.sentences[7] = np.array([len(dataset.vocab)])
        with pytest.raises(DataError, match="is not in"):
            getattr(fitted_classifier, score)(dataset)
        assert scoring_buffer_is_clear()

    def test_two_threads_scoring_at_once_match_serial(
        self, fitted_classifier, text_dataset, egl_pool
    ):
        jobs = [(fitted_classifier, text_dataset), egl_pool]
        serial = [
            (model.predict_proba(data).tobytes(), model.expected_gradient_lengths(data).tobytes())
            for model, data in jobs
        ]
        start = threading.Barrier(len(jobs))
        results = [[] for _ in jobs]

        def score(slot: int) -> None:
            model, data = jobs[slot]
            start.wait()
            for _ in range(10):
                results[slot].append((
                    model.predict_proba(data).tobytes(),
                    model.expected_gradient_lengths(data).tobytes(),
                ))

        threads = [threading.Thread(target=score, args=(slot,)) for slot in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for slot, expected in enumerate(serial):
            assert results[slot] == [expected] * 10
        assert scoring_buffer_is_clear()


class TestSetParams:
    """A stored state must be this model's shape before it is installed."""

    @pytest.mark.parametrize("change, message", [
        (lambda arrays, meta: arrays.update(b=encode_array(np.zeros(3))),
         r"arrays.b must have shape \(2,\), got \(3,\)"),
        (lambda arrays, meta: arrays.update(b=[[0.0, 0.0]]),
         r"arrays.b must have shape \(2,\), got \(1, 2\)"),
        (lambda arrays, meta: arrays.update(W=[0.0, 0.0]),
         r"arrays.W must be a matrix with meta.num_classes \(2\) columns"),
        (lambda arrays, meta: meta.update(num_classes=3),
         r"arrays.W must be a matrix with meta.num_classes \(3\) columns"),
    ])
    def test_a_misshaped_state_is_a_configuration_error(
        self, fitted_classifier, change, message
    ):
        state = fitted_classifier.get_params()
        change(state["arrays"], state["meta"])
        model = fitted_classifier.clone()
        with pytest.raises(ConfigurationError, match=message):
            model.set_params(state)
        with pytest.raises(NotFittedError):
            model.weights


class TestValidation:
    def test_bad_epochs(self):
        with pytest.raises(ConfigurationError):
            LinearSoftmax(epochs=0)

    def test_bad_l2(self):
        with pytest.raises(ConfigurationError):
            LinearSoftmax(l2=-1)

    def test_repr_shows_state(self, text_dataset):
        model = LinearSoftmax()
        assert "unfitted" in repr(model)
        model.fit(text_dataset.subset(range(50)))
        assert "fitted" in repr(model)
