"""Integration tests: full active-learning pipelines across modules."""

import numpy as np
import pytest

from repro import (
    ExperimentConfig,
    LinearChainCRF,
    LinearSoftmax,
    MLPClassifier,
    SessionEngine,
    run_comparison,
    run_to_completion,
    train_lhs_ranker,
)
from repro.core.ranker_training import RankerTrainingConfig
from repro.core.strategies import (
    BALD,
    Entropy,
    FHS,
    HUS,
    LHS,
    LeastConfidence,
    MNLP,
    Random,
    WSHS,
)
from repro.eval.curves import area_under_curve


class TestTextClassificationPipeline:
    def test_full_comparison_runs(self, text_dataset):
        config = ExperimentConfig(batch_size=20, rounds=4, repeats=2, seed=1)
        results = run_comparison(
            lambda: LinearSoftmax(epochs=5, seed=0),
            {
                "Random": Random,
                "Entropy": Entropy,
                "HUS": lambda: HUS(Entropy(), window=3),
                "WSHS": lambda: WSHS(Entropy(), window=3),
                "FHS": lambda: FHS(Entropy(), window=3),
            },
            text_dataset.subset(range(400)),
            text_dataset.subset(range(400, 600)),
            config=config,
        )
        for result in results.values():
            assert len(result.curve) == 5
            assert np.isfinite(result.curve.values).all()

    def test_learning_happens(self, text_dataset):
        engine = SessionEngine(
            LinearSoftmax(epochs=8, seed=0),
            Entropy(),
            text_dataset.subset(range(400)),
            text_dataset.subset(range(400, 600)),
            batch_size=30,
            rounds=6,
            seed_or_rng=0,
        )
        curve = run_to_completion(engine).curve()
        assert curve.values[-1] > curve.values[0]

    def test_bald_with_mlp(self, text_dataset):
        engine = SessionEngine(
            MLPClassifier(epochs=10, hidden_dim=12, seed=0),
            WSHS(BALD(n_draws=4), window=3),
            text_dataset.subset(range(300)),
            text_dataset.subset(range(300, 450)),
            batch_size=20,
            rounds=3,
            seed_or_rng=0,
        )
        result = run_to_completion(engine)
        assert result.history.num_rounds == 3


class TestNERPipeline:
    def test_crf_active_learning(self, ner_dataset):
        engine = SessionEngine(
            LinearChainCRF(epochs=2, seed=0),
            WSHS(LeastConfidence(), window=3),
            ner_dataset.subset(range(180)),
            ner_dataset.subset(range(180, 250)),
            batch_size=20,
            rounds=3,
            seed_or_rng=0,
        )
        result = run_to_completion(engine)
        curve = result.curve()
        assert len(curve) == 4
        assert curve.values[-1] > 0.2  # span F1 is learnable

    def test_bilstm_crf_active_learning(self, ner_dataset):
        from repro.models import BiLSTMCRF

        engine = SessionEngine(
            BiLSTMCRF(embedding_dim=10, hidden_dim=8, epochs=2, seed=0),
            WSHS(MNLP(), window=2),
            ner_dataset.subset(range(120)),
            ner_dataset.subset(range(120, 170)),
            batch_size=20,
            rounds=2,
            seed_or_rng=0,
        )
        result = run_to_completion(engine)
        assert len(result.curve()) == 3
        assert result.history.num_rounds == 2

    def test_mnlp_strategy(self, ner_dataset):
        engine = SessionEngine(
            LinearChainCRF(epochs=2, seed=0),
            MNLP(),
            ner_dataset.subset(range(180)),
            ner_dataset.subset(range(180, 250)),
            batch_size=20,
            rounds=2,
            seed_or_rng=0,
        )
        assert len(run_to_completion(engine).curve()) == 3


class TestLHSPipeline:
    def test_transfer_across_datasets(self, text_dataset, multiclass_dataset):
        """Train the ranker on one corpus, apply it to the AL loop there."""
        ranker = train_lhs_ranker(
            LinearSoftmax(epochs=4, seed=0),
            text_dataset.subset(range(250)),
            text_dataset.subset(range(250, 350)),
            base=Entropy(),
            config=RankerTrainingConfig(
                rounds=2, candidates_per_round=6, initial_size=15,
                predictor="ar", predictor_rounds=3, eval_size=80,
            ),
            seed_or_rng=3,
        )
        engine = SessionEngine(
            LinearSoftmax(epochs=4, seed=0),
            LHS(Entropy(), ranker, candidate_strategies=[LeastConfidence()]),
            text_dataset.subset(range(350, 550)),
            text_dataset.subset(range(550, 600)),
            batch_size=15,
            rounds=3,
            seed_or_rng=4,
        )
        result = run_to_completion(engine)
        assert len(result.curve()) == 4
        assert area_under_curve(result.curve()) > 0.4


class TestReproducibility:
    def test_whole_pipeline_bit_reproducible(self, text_dataset):
        def run():
            engine = SessionEngine(
                LinearSoftmax(epochs=5, seed=0),
                FHS(Entropy(), window=3),
                text_dataset.subset(range(300)),
                text_dataset.subset(range(300, 400)),
                batch_size=20,
                rounds=3,
                seed_or_rng=77,
            )
            return run_to_completion(engine)

        a, b = run(), run()
        assert np.array_equal(a.curve().values, b.curve().values)
        for x, y in zip(a.selection_order, b.selection_order):
            assert np.array_equal(x, y)
