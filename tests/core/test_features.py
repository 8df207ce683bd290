"""Tests for the LHS ranking-feature extractor."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.features import RankingFeatureExtractor, _backfill
from repro.core.history import HistoryStore
from repro.exceptions import ConfigurationError
from repro.timeseries.mann_kendall import mann_kendall_test
from repro.timeseries.predictor import ARNextScorePredictor
from tests.oracles.core import backfill_reference

from .helpers import make_context


def history_with_rounds(n, rounds):
    store = HistoryStore(n)
    for round_index, scores in enumerate(rounds, start=1):
        store.append(round_index, np.arange(n), np.asarray(scores, dtype=float))
    return store


class TestBackfill:
    def test_leading_nans_filled_with_first(self):
        window = np.array([[np.nan, np.nan, 0.4, 0.6]])
        assert _backfill(window)[0].tolist() == [0.4, 0.4, 0.4, 0.6]

    def test_all_nan_becomes_zero(self):
        window = np.array([[np.nan, np.nan]])
        assert _backfill(window)[0].tolist() == [0.0, 0.0]

    def test_full_row_unchanged(self):
        window = np.array([[0.1, 0.2]])
        assert _backfill(window)[0].tolist() == [0.1, 0.2]


class TestBackfillEquivalence:
    """The vectorized backfill must match the row-loop oracle exactly."""

    def test_mixed_rows(self):
        window = np.array(
            [
                [np.nan, np.nan, 0.4, 0.6],
                [np.nan, np.nan, np.nan, np.nan],
                [0.1, 0.2, 0.3, 0.4],
                [np.nan, 0.7, np.nan, 0.9],
            ]
        )
        np.testing.assert_array_equal(_backfill(window), backfill_reference(window))

    def test_empty(self):
        window = np.empty((0, 3))
        np.testing.assert_array_equal(_backfill(window), backfill_reference(window))

    def test_input_not_mutated(self):
        window = np.array([[np.nan, 0.5]])
        _backfill(window)
        assert np.isnan(window[0, 0])

    @given(
        st.lists(
            st.lists(
                st.one_of(st.none(), st.floats(-10, 10, allow_nan=False)),
                min_size=1,
                max_size=6,
            ).map(lambda row: [np.nan if v is None else v for v in row]),
            min_size=1,
            max_size=10,
        )
    )
    def test_equivalence_property(self, ragged_rows):
        width = max(len(row) for row in ragged_rows)
        window = np.full((len(ragged_rows), width), np.nan)
        for index, row in enumerate(ragged_rows):
            window[index, : len(row)] = row
        np.testing.assert_array_equal(_backfill(window), backfill_reference(window))


class TestTrendEquivalence:
    """Batched trend features must match the per-sample scalar MK loop."""

    def _reference_trend(self, history, sample_indices):
        features = np.zeros((len(sample_indices), 2))
        for row, index in enumerate(sample_indices):
            sequence = history.sequence(int(index))
            if len(sequence) >= 3:
                result = mann_kendall_test(sequence)
                features[row, 0] = result.z
                features[row, 1] = result.tau
        return features

    def test_matches_scalar_loop_with_ragged_histories(self):
        rng = np.random.default_rng(3)
        n = 30
        store = HistoryStore(n)
        for round_index in range(1, 9):
            # Samples keep leaving the pool, so sequence lengths vary 0..8.
            evaluated = np.sort(
                rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            )
            store.append(round_index, evaluated, rng.random(len(evaluated)))
        extractor = RankingFeatureExtractor(window=3)
        indices = np.arange(n)
        batched = extractor._trend_features(store, indices)
        np.testing.assert_array_equal(batched, self._reference_trend(store, indices))

    def test_empty_history(self):
        extractor = RankingFeatureExtractor(window=3)
        store = HistoryStore(5)
        assert np.allclose(extractor._trend_features(store, np.arange(5)), 0.0)


class TestFeatureLayout:
    def test_all_groups_dim(self):
        extractor = RankingFeatureExtractor(window=4)
        assert extractor.dim == 4 + 1 + 2 + 1 + 2

    def test_names_match_dim(self):
        extractor = RankingFeatureExtractor(window=3)
        assert len(extractor.feature_names()) == extractor.dim

    def test_ablation_reduces_dim(self):
        full = RankingFeatureExtractor(window=3).dim
        no_trend = RankingFeatureExtractor(window=3, use_trend=False).dim
        assert no_trend == full - 2

    def test_window_stats_extension_adds_four(self):
        base = RankingFeatureExtractor(window=3).dim
        extended = RankingFeatureExtractor(window=3, use_window_stats=True).dim
        assert extended == base + 4

    def test_all_off_rejected(self):
        with pytest.raises(ConfigurationError):
            RankingFeatureExtractor(
                use_history=False,
                use_fluctuation=False,
                use_trend=False,
                use_prediction=False,
                use_probabilities=False,
            )

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            RankingFeatureExtractor(window=0)


class TestExtraction:
    def test_shape(self, fitted_classifier, text_dataset):
        history = history_with_rounds(
            len(text_dataset), [np.random.default_rng(i).random(len(text_dataset)) for i in range(4)]
        )
        context = make_context(text_dataset, history=history, round_index=5)
        extractor = RankingFeatureExtractor(window=3)
        features = extractor.extract(fitted_classifier, context, np.arange(10))
        assert features.shape == (10, extractor.dim)
        assert np.isfinite(features).all()

    def test_history_columns_match_store(self, fitted_classifier, text_dataset):
        rounds = [np.full(len(text_dataset), 0.2), np.full(len(text_dataset), 0.4)]
        history = history_with_rounds(len(text_dataset), rounds)
        context = make_context(text_dataset, history=history)
        extractor = RankingFeatureExtractor(
            window=2, use_trend=False, use_prediction=False,
            use_probabilities=False, use_fluctuation=False,
        )
        features = extractor.extract(fitted_classifier, context, np.arange(3))
        assert np.allclose(features, [[0.2, 0.4]] * 3)

    def test_fluctuation_column(self, fitted_classifier, text_dataset):
        n = len(text_dataset)
        history = history_with_rounds(n, [np.zeros(n), np.ones(n)])
        context = make_context(text_dataset, history=history)
        extractor = RankingFeatureExtractor(
            window=2, use_history=False, use_trend=False,
            use_prediction=False, use_probabilities=False,
        )
        features = extractor.extract(fitted_classifier, context, np.arange(4))
        assert np.allclose(features[:, 0], 0.25)  # var of [0, 1]

    def test_trend_zero_for_short_history(self, fitted_classifier, text_dataset):
        n = len(text_dataset)
        history = history_with_rounds(n, [np.zeros(n)])
        context = make_context(text_dataset, history=history)
        extractor = RankingFeatureExtractor(
            window=3, use_history=False, use_fluctuation=False,
            use_prediction=False, use_probabilities=False,
        )
        features = extractor.extract(fitted_classifier, context, np.arange(4))
        assert np.allclose(features, 0.0)

    def test_trend_positive_for_increasing(self, fitted_classifier, text_dataset):
        n = len(text_dataset)
        history = history_with_rounds(
            n, [np.full(n, 0.1), np.full(n, 0.3), np.full(n, 0.5), np.full(n, 0.7)]
        )
        context = make_context(text_dataset, history=history)
        extractor = RankingFeatureExtractor(
            window=3, use_history=False, use_fluctuation=False,
            use_prediction=False, use_probabilities=False,
        )
        features = extractor.extract(fitted_classifier, context, np.arange(2))
        assert (features[:, 0] > 0).all()  # MK z
        assert np.allclose(features[:, 1], 1.0)  # tau

    def test_persistence_fallback_prediction(self, fitted_classifier, text_dataset):
        n = len(text_dataset)
        history = history_with_rounds(n, [np.full(n, 0.3), np.full(n, 0.8)])
        context = make_context(text_dataset, history=history)
        extractor = RankingFeatureExtractor(
            window=2, predictor=None, use_history=False, use_fluctuation=False,
            use_trend=False, use_probabilities=False,
        )
        features = extractor.extract(fitted_classifier, context, np.arange(3))
        assert np.allclose(features[:, 0], 0.8)

    def test_fitted_predictor_used(self, fitted_classifier, text_dataset):
        n = len(text_dataset)
        history = history_with_rounds(
            n, [np.full(n, 0.2), np.full(n, 0.4), np.full(n, 0.6)]
        )
        predictor = ARNextScorePredictor(order=2).fit(
            [np.array([0.2, 0.4])], [0.6]
        )
        context = make_context(text_dataset, history=history)
        extractor = RankingFeatureExtractor(
            window=2, predictor=predictor, use_history=False,
            use_fluctuation=False, use_trend=False, use_probabilities=False,
        )
        features = extractor.extract(fitted_classifier, context, np.arange(2))
        assert np.isfinite(features).all()

    def test_probability_features_sorted(self, fitted_classifier, text_dataset):
        history = history_with_rounds(len(text_dataset), [np.zeros(len(text_dataset))])
        context = make_context(text_dataset, history=history)
        extractor = RankingFeatureExtractor(
            window=2, use_history=False, use_fluctuation=False,
            use_trend=False, use_prediction=False,
        )
        features = extractor.extract(fitted_classifier, context, np.arange(8))
        assert (features[:, 0] >= features[:, 1]).all()
        assert np.allclose(features.sum(axis=1), 1.0)  # binary: top2 = all

    def test_window_statistics_values(self, fitted_classifier, text_dataset):
        n = len(text_dataset)
        history = history_with_rounds(n, [np.full(n, 0.2), np.full(n, 0.6)])
        context = make_context(text_dataset, history=history)
        extractor = RankingFeatureExtractor(
            window=2, use_history=False, use_fluctuation=False, use_trend=False,
            use_prediction=False, use_probabilities=False, use_window_stats=True,
        )
        features = extractor.extract(fitted_classifier, context, np.arange(2))
        # [min, max, mean, delta] of [0.2, 0.6].
        assert np.allclose(features, [[0.2, 0.6, 0.4, 0.4]] * 2)

    def test_sequence_model_probability_features_zero(self, ner_dataset):
        from repro.models.crf import LinearChainCRF

        model = LinearChainCRF(epochs=1, seed=0).fit(ner_dataset.subset(range(30)))
        history = history_with_rounds(len(ner_dataset), [np.zeros(len(ner_dataset))])
        context = make_context(ner_dataset, n_labeled=30, history=history)
        extractor = RankingFeatureExtractor(
            window=2, use_history=False, use_fluctuation=False,
            use_trend=False, use_prediction=False,
        )
        features = extractor.extract(model, context, np.arange(5))
        assert np.allclose(features, 0.0)
