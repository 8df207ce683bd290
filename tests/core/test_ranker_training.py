"""Tests for Algorithm 1 (LHS ranker training) and the LHS strategy."""

import numpy as np
import pytest

from repro.core.ranker_training import (
    LHSRanker,
    RankerTrainingConfig,
    _delta_levels,
    train_lhs_ranker,
)
from repro.core.session import SessionEngine, run_to_completion
from repro.core.strategies import Entropy, LHS, LeastConfidence
from repro.exceptions import ConfigurationError
from repro.models.linear import LinearSoftmax


FAST_CONFIG = RankerTrainingConfig(
    rounds=3,
    candidates_per_round=8,
    initial_size=20,
    add_per_round=2,
    window=3,
    predictor="ar",
    predictor_rounds=4,
    eval_size=100,
)


@pytest.fixture(scope="module")
def trained_ranker(text_dataset):
    return train_lhs_ranker(
        LinearSoftmax(epochs=5, seed=0),
        text_dataset.subset(range(300)),
        text_dataset.subset(range(300, 450)),
        base=Entropy(),
        config=FAST_CONFIG,
        seed_or_rng=7,
    )


class TestDeltaLevels:
    def test_equal_interval_binning(self):
        deltas = np.array([0.0, 0.5, 1.0])
        levels = _delta_levels(deltas, levels=2)
        assert levels.tolist() == [0, 1, 1]

    def test_constant_deltas_single_level(self):
        assert _delta_levels(np.full(4, 0.3), 4).tolist() == [0, 0, 0, 0]

    def test_level_count_respected(self):
        deltas = np.linspace(0, 1, 20)
        levels = _delta_levels(deltas, 4)
        assert set(levels) == {0, 1, 2, 3}

    def test_paper_example_ordering_preserved(self):
        """Sec. 4.4.3's worked example: discretisation must be monotone.

        Our bins are equal intervals over the observed range (the paper
        fixes the interval at 0.01 instead), so exact level assignments
        differ slightly, but the ordering and the top/bottom extremes
        must match.
        """
        deltas = np.array([0.01, 0.015, 0.02, 0.008, 0.025])
        levels = _delta_levels(deltas, 3)
        assert levels[3] == levels.min()  # worst delta in the lowest level
        assert levels[4] == levels.max() == 2  # best delta in the top level
        order = np.argsort(deltas)
        assert (np.diff(levels[order]) >= 0).all()  # monotone in delta


class TestConfigValidation:
    def test_bad_rounds(self):
        with pytest.raises(ConfigurationError):
            RankerTrainingConfig(rounds=0)

    def test_bad_candidates(self):
        with pytest.raises(ConfigurationError):
            RankerTrainingConfig(candidates_per_round=1)

    def test_bad_levels(self):
        with pytest.raises(ConfigurationError):
            RankerTrainingConfig(levels=1)

    def test_bad_predictor(self):
        with pytest.raises(ConfigurationError):
            RankerTrainingConfig(predictor="transformer")

    def test_bad_training_mode(self):
        with pytest.raises(ConfigurationError, match="training_mode"):
            RankerTrainingConfig(training_mode="hot")


class TestTraining:
    def test_returns_bundle(self, trained_ranker):
        assert isinstance(trained_ranker, LHSRanker)
        assert trained_ranker.training_rows > 0
        assert trained_ranker.base_name == "Entropy"

    def test_extractor_carries_predictor(self, trained_ranker):
        assert trained_ranker.extractor.predictor is not None

    def test_ranker_predicts_finite(self, trained_ranker):
        features = np.random.default_rng(0).random((5, trained_ranker.extractor.dim))
        assert np.isfinite(trained_ranker.model.predict(features)).all()

    def test_no_predictor_config(self, text_dataset):
        config = RankerTrainingConfig(
            rounds=2, candidates_per_round=6, initial_size=15,
            predictor=None, eval_size=80,
        )
        bundle = train_lhs_ranker(
            LinearSoftmax(epochs=4, seed=0),
            text_dataset.subset(range(200)),
            text_dataset.subset(range(200, 300)),
            config=config,
            seed_or_rng=1,
        )
        assert bundle.extractor.predictor is None

    def test_deterministic(self, text_dataset):
        def train(seed):
            return train_lhs_ranker(
                LinearSoftmax(epochs=4, seed=0),
                text_dataset.subset(range(200)),
                text_dataset.subset(range(200, 300)),
                config=RankerTrainingConfig(
                    rounds=2, candidates_per_round=6, initial_size=15,
                    predictor=None, eval_size=80,
                ),
                seed_or_rng=seed,
            )

        a, b = train(3), train(3)
        features = np.random.default_rng(0).random((4, a.extractor.dim))
        assert np.allclose(a.model.predict(features), b.model.predict(features))

    def test_feature_flags_forwarded(self, text_dataset):
        config = RankerTrainingConfig(
            rounds=2, candidates_per_round=6, initial_size=15, predictor=None,
            eval_size=80, feature_flags={"use_trend": False},
        )
        bundle = train_lhs_ranker(
            LinearSoftmax(epochs=4, seed=0),
            text_dataset.subset(range(200)),
            text_dataset.subset(range(200, 300)),
            config=config,
            seed_or_rng=1,
        )
        assert not bundle.extractor.use_trend


class TestWarmTraining:
    WARM_CONFIG = RankerTrainingConfig(
        rounds=2, candidates_per_round=6, initial_size=15,
        predictor=None, eval_size=80, training_mode="warm",
    )

    def _train(self, text_dataset, config, seed=3):
        return train_lhs_ranker(
            LinearSoftmax(epochs=4, seed=0),
            text_dataset.subset(range(200)),
            text_dataset.subset(range(200, 300)),
            config=config,
            seed_or_rng=seed,
        )

    def test_warm_training_deterministic(self, text_dataset):
        a = self._train(text_dataset, self.WARM_CONFIG)
        b = self._train(text_dataset, self.WARM_CONFIG)
        features = np.random.default_rng(0).random((4, a.extractor.dim))
        np.testing.assert_array_equal(
            a.model.predict(features), b.model.predict(features)
        )

    def test_warm_differs_from_cold(self, text_dataset):
        cold_config = RankerTrainingConfig(
            rounds=2, candidates_per_round=6, initial_size=15,
            predictor=None, eval_size=80,
        )
        warm = self._train(text_dataset, self.WARM_CONFIG)
        cold = self._train(text_dataset, cold_config)
        features = np.random.default_rng(0).random((4, warm.extractor.dim))
        assert not np.array_equal(
            warm.model.predict(features), cold.model.predict(features)
        )


class TestLHSStrategy:
    def test_runs_in_loop(self, trained_ranker, text_dataset):
        strategy = LHS(
            Entropy(), trained_ranker, candidate_strategies=[LeastConfidence()]
        )
        result = run_to_completion(SessionEngine(
            LinearSoftmax(epochs=4, seed=0),
            strategy,
            text_dataset.subset(range(400)),
            text_dataset.subset(range(400, 600)),
            batch_size=15,
            rounds=3,
            seed_or_rng=0,
        ))
        assert len(result.curve()) == 4
        assert result.history.num_rounds == 3

    def test_scores_full_pool(self, trained_ranker, fitted_classifier, text_dataset):
        from .helpers import make_context

        strategy = LHS(Entropy(), trained_ranker)
        context = make_context(text_dataset)
        scores = strategy.scores(fitted_classifier, context)
        assert scores.shape == context.unlabeled.shape

    def test_selection_within_candidate_set(
        self, trained_ranker, fitted_classifier, text_dataset
    ):
        from .helpers import make_context

        strategy = LHS(Entropy(), trained_ranker, candidate_factor=2)
        context = make_context(text_dataset)
        base_scores = Entropy().scores(fitted_classifier, context)
        chosen = strategy.select(fitted_classifier, context, 5)
        top_positions = set(np.argsort(-base_scores)[: 2 * 5].tolist())
        chosen_positions = {
            int(np.flatnonzero(context.unlabeled == c)[0]) for c in chosen
        }
        assert chosen_positions <= top_positions

    def test_bad_candidate_factor(self, trained_ranker):
        with pytest.raises(ConfigurationError):
            LHS(Entropy(), trained_ranker, candidate_factor=0)

    def test_name(self, trained_ranker):
        assert LHS(Entropy(), trained_ranker).name == "LHS(Entropy)"
