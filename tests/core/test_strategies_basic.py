"""Tests for the base strategy machinery and the classic baselines."""

import numpy as np
import pytest

from repro.core.strategies import (
    DensityWeighted,
    EGL,
    Entropy,
    LeastConfidence,
    MMR,
    Margin,
    QBC,
    Random,
    create_strategy,
    registered_strategies,
)
from repro.core.session import SessionEngine, run_to_completion
from repro.core.strategies.base import distribution_entropy
from repro.core.strategies.density import candidate_vectors
from repro.data.datasets import TextDataset
from repro.data.vocab import Vocabulary
from repro.exceptions import ConfigurationError, StrategyError
from repro.models.crf import LinearChainCRF
from repro.models.linear import LinearSoftmax
from repro.specs import Spec, spec_of_strategy, strategy_kinds

from tests.oracles.data import candidate_vectors_reference

from .helpers import make_context


class TestRegistry:
    def test_known_keys_present(self):
        keys = registered_strategies()
        for key in ("random", "entropy", "lc", "egl", "wshs", "fhs", "lhs", "bald"):
            assert key in keys

    def test_create_by_key(self):
        assert isinstance(create_strategy("random"), Random)

    def test_create_with_args(self):
        strategy = create_strategy("qbc", committee_size=4)
        assert strategy.committee_size == 4

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError):
            create_strategy("nope")

    def test_lookup_is_the_spec_registry(self):
        assert registered_strategies() == strategy_kinds()
        wrapped = create_strategy("wshs", base={"kind": "entropy"}, window=2)
        assert spec_of_strategy(wrapped) == Spec(
            kind="wshs", params={"base": Spec(kind="entropy").to_dict(), "window": 2}
        )


class TestSelectContract:
    def test_select_returns_dataset_indices(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        chosen = Entropy().select(fitted_classifier, context, 10)
        assert len(chosen) == 10
        assert set(chosen) <= set(context.unlabeled)

    def test_select_no_duplicates(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        chosen = Entropy().select(fitted_classifier, context, 25)
        assert len(np.unique(chosen)) == 25

    def test_select_takes_top_scores(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        strategy = Entropy()
        scores = strategy.scores(fitted_classifier, context)
        chosen = strategy.select(fitted_classifier, context, 5)
        threshold = np.sort(scores)[-5]
        positions = [np.flatnonzero(context.unlabeled == c)[0] for c in chosen]
        assert (scores[positions] >= threshold - 1e-12).all()

    def test_oversized_batch_rejected(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset, n_labeled=len(text_dataset) - 3)
        with pytest.raises(StrategyError):
            Entropy().select(fitted_classifier, context, 10)

    def test_zero_batch_rejected(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        with pytest.raises(ConfigurationError):
            Entropy().select(fitted_classifier, context, 0)

    def test_tie_break_randomised(self, fitted_classifier, text_dataset):
        picks = set()
        for seed in range(5):
            context = make_context(text_dataset, seed=seed)
            picks.add(tuple(Random().select(fitted_classifier, context, 3)))
        assert len(picks) > 1


class TestRandom:
    def test_scores_uniform_shape(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        scores = Random().scores(fitted_classifier, context)
        assert scores.shape == context.unlabeled.shape

    def test_name(self):
        assert Random().name == "Random"


class TestEntropy:
    def test_matches_definition(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        scores = Entropy().scores(fitted_classifier, context)
        probs = fitted_classifier.predict_proba(context.candidates)
        expected = -(probs * np.log(np.clip(probs, 1e-12, None))).sum(axis=1)
        assert np.allclose(scores, expected)

    def test_uniform_distribution_maximal(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1]])
        entropy = distribution_entropy(probs)
        assert entropy[0] > entropy[1]

    def test_sequence_model(self, ner_dataset):
        model = LinearChainCRF(epochs=1, seed=0).fit(ner_dataset.subset(range(40)))
        context = make_context(ner_dataset, n_labeled=40)
        scores = Entropy().scores(model, context)
        assert scores.shape == context.unlabeled.shape
        assert (scores >= 0).all()

    def test_rejects_unknown_model(self, text_dataset):
        context = make_context(text_dataset)
        with pytest.raises(StrategyError):
            Entropy().scores(object(), context)


class TestLeastConfidence:
    def test_matches_definition(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        scores = LeastConfidence().scores(fitted_classifier, context)
        probs = fitted_classifier.predict_proba(context.candidates)
        assert np.allclose(scores, 1.0 - probs.max(axis=1))

    def test_sequence_model_length_bias(self, ner_dataset):
        """Sequence LC favours long sentences — the bias MNLP removes."""
        model = LinearChainCRF(epochs=2, seed=0).fit(ner_dataset.subset(range(60)))
        context = make_context(ner_dataset, n_labeled=60)
        scores = LeastConfidence().scores(model, context)
        lengths = context.candidates.lengths()
        correlation = np.corrcoef(scores, lengths)[0, 1]
        assert correlation > 0.2


class TestMargin:
    def test_matches_definition(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        scores = Margin().scores(fitted_classifier, context)
        probs = np.sort(fitted_classifier.predict_proba(context.candidates), axis=1)
        assert np.allclose(scores, 1.0 - (probs[:, -1] - probs[:, -2]))

    def test_rejects_sequence_model(self, ner_dataset):
        model = LinearChainCRF(epochs=1).fit(ner_dataset.subset(range(30)))
        context = make_context(ner_dataset, n_labeled=30)
        with pytest.raises(StrategyError):
            Margin().scores(model, context)


class TestEGLStrategy:
    def test_delegates_to_model(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        scores = EGL().scores(fitted_classifier, context)
        expected = fitted_classifier.expected_gradient_lengths(context.candidates)
        assert np.allclose(scores, expected)

    def test_rejects_incapable_model(self, ner_dataset):
        model = LinearChainCRF(epochs=1).fit(ner_dataset.subset(range(30)))
        context = make_context(ner_dataset, n_labeled=30)
        with pytest.raises(StrategyError):
            EGL().scores(model, context)


class TestQBC:
    def test_scores_shape_and_sign(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset, n_labeled=80)
        scores = QBC(committee_size=3).scores(fitted_classifier, context)
        assert scores.shape == context.unlabeled.shape
        assert (scores >= -1e-9).all()

    def test_tiny_labeled_set_falls_back_to_random(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset, n_labeled=1)
        scores = QBC().scores(fitted_classifier, context)
        assert scores.shape == context.unlabeled.shape

    def test_bad_committee(self):
        with pytest.raises(ConfigurationError):
            QBC(committee_size=1)

    def test_name_mentions_size(self):
        assert "3" in QBC(committee_size=3).name


class TestDensity:
    def test_vectors_match_the_dense_oracle(self, text_dataset, ner_dataset):
        """Unit rows written from the kept counts have the bytes of the
        dense count matrix divided by its norms, for text (a corpus,
        subsets with repeats, an empty row, an empty pool) and for
        sequences."""
        with_empty_row = TextDataset([[2, 2, 3], [], [3]], [0, 1, 0], Vocabulary(["a", "b"]), 2)
        pools = (
            text_dataset, text_dataset.subset([5, -1, 5, 40]), text_dataset.subset([]),
            with_empty_row, with_empty_row.subset([1, 0]),
            ner_dataset, ner_dataset.subset(range(0, 250, 3)), ner_dataset.subset([]),
        )
        for pool in pools:
            vectors = candidate_vectors(pool)
            assert vectors.shape == (len(pool), len(pool.vocab))
            assert vectors.tobytes() == candidate_vectors_reference(pool).tobytes()

    def test_downweights_outliers(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        base_scores = Entropy().scores(fitted_classifier, context)
        weighted = DensityWeighted(Entropy()).scores(fitted_classifier, context)
        # Density in [0, 1] never increases scores.
        assert (weighted <= base_scores + 1e-9).all()

    def test_beta_zero_recovers_base(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        base_scores = Entropy().scores(fitted_classifier, context)
        weighted = DensityWeighted(Entropy(), beta=0.0).scores(fitted_classifier, context)
        assert np.allclose(weighted, base_scores)

    def test_bad_beta(self):
        with pytest.raises(ConfigurationError):
            DensityWeighted(Entropy(), beta=-1)

    def test_tagger_run_over_a_sequence_pool(self, ner_dataset):
        """density(lc) weights by bag-of-token similarity on NER pools."""
        strategy = DensityWeighted(LeastConfidence())
        result = run_to_completion(SessionEngine(
            LinearChainCRF(epochs=2, seed=0),
            strategy,
            ner_dataset.subset(range(150)),
            ner_dataset.subset(range(150, 200)),
            batch_size=4,
            rounds=2,
            seed_or_rng=11,
        ))
        assert len(result.records) == 3
        assert all(len(selected) == 4 for selected in result.selection_order)
        context = make_context(ner_dataset.subset(range(150)), n_labeled=12)
        scores = strategy.scores(result.final_model, context)
        base = LeastConfidence().scores(result.final_model, context)
        assert scores.shape == context.unlabeled.shape
        assert np.isfinite(scores).all()
        assert (scores <= base + 1e-9).all()


class TestMMR:
    def test_batch_is_diverse(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        plain = Entropy().select(fitted_classifier, context, 10)
        diverse = MMR(Entropy(), balance=0.5).select(fitted_classifier, context, 10)
        assert len(np.unique(diverse)) == 10
        assert set(diverse) != set(plain)

    def test_balance_one_tracks_base_top(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset, seed=1)
        strategy = MMR(Entropy(), balance=1.0)
        scores = Entropy().scores(fitted_classifier, context)
        chosen = strategy.select(fitted_classifier, context, 5)
        top_threshold = np.sort(scores)[-5]
        positions = [np.flatnonzero(context.unlabeled == c)[0] for c in chosen]
        assert (scores[positions] >= top_threshold - 1e-9).all()

    def test_scores_penalise_similarity_to_labeled(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        scores = MMR(Entropy(), balance=0.5).scores(fitted_classifier, context)
        assert scores.shape == context.unlabeled.shape

    def test_bad_balance(self):
        with pytest.raises(ConfigurationError):
            MMR(Entropy(), balance=2.0)

    def test_oversized_batch_rejected(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset, n_labeled=len(text_dataset) - 2)
        with pytest.raises(StrategyError):
            MMR(Entropy()).select(fitted_classifier, context, 5)


class TestContextCaching:
    def test_probabilities_cached(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        first = context.probabilities(fitted_classifier)
        second = context.probabilities(fitted_classifier)
        assert first is second

    def test_candidates_cached(self, fitted_classifier, text_dataset):
        context = make_context(text_dataset)
        assert context.candidates is context.candidates

    def test_linear_model_uses_cache_for_entropy_and_lc(
        self, fitted_classifier, text_dataset
    ):
        context = make_context(text_dataset)
        Entropy().scores(fitted_classifier, context)
        LeastConfidence().scores(fitted_classifier, context)
        cache_keys = [k for k in context.cache._store if k[0] == "proba"]
        assert len(cache_keys) == 1
