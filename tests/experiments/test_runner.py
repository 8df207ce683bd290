"""Tests for the multi-repeat experiment runner."""

import numpy as np
import pytest

from repro.core.strategies import Entropy, Random
from repro.experiments import ExperimentConfig, run_comparison
from repro.experiments.distributed import run_distributed
from repro.exceptions import ConfigurationError
from repro.models.linear import LinearSoftmax
from repro.specs import ExperimentSpec, Spec


@pytest.fixture(scope="module")
def comparison(text_dataset):
    config = ExperimentConfig(batch_size=20, rounds=3, repeats=2, seed=5)
    return run_comparison(
        lambda: LinearSoftmax(epochs=5, seed=0),
        {"Random": Random, "Entropy": Entropy},
        text_dataset.subset(range(400)),
        text_dataset.subset(range(400, 600)),
        config=config,
    )


class TestConfig:
    def test_labels_needed(self):
        config = ExperimentConfig(batch_size=20, rounds=3)
        assert config.labels_needed == 80

    def test_labels_needed_custom_initial(self):
        config = ExperimentConfig(batch_size=20, rounds=3, initial_size=50)
        assert config.labels_needed == 110

    def test_bad_repeats(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(repeats=0)

    def test_bad_rounds(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(rounds=0)


class TestRunComparison:
    def test_all_strategies_present(self, comparison):
        assert set(comparison) == {"Random", "Entropy"}

    def test_runs_per_strategy(self, comparison):
        assert len(comparison["Random"].runs) == 2

    def test_mean_curve_shape(self, comparison):
        assert len(comparison["Random"].curve) == 4

    def test_std_shape(self, comparison):
        assert comparison["Random"].std.shape == (4,)

    def test_matched_initial_sets(self, comparison):
        """Repeat r of every strategy must share the same initial batch."""
        random_runs = comparison["Random"].runs
        entropy_runs = comparison["Entropy"].runs
        for a, b in zip(random_runs, entropy_runs):
            assert a.records[0].labeled_count == b.records[0].labeled_count
            # Same first-round metric implies same initial labeled set
            # (both train the same deterministic model on it).
            assert a.records[0].metric == b.records[0].metric

    def test_empty_strategies_rejected(self, text_dataset):
        with pytest.raises(ConfigurationError):
            run_comparison(
                lambda: LinearSoftmax(),
                {},
                text_dataset.subset(range(100)),
                text_dataset.subset(range(100, 150)),
            )

    def test_sequence_task_supported(self, ner_dataset):
        from repro.core.strategies import MNLP
        from repro.models.crf import LinearChainCRF

        results = run_comparison(
            lambda: LinearChainCRF(epochs=1, seed=0),
            {"Random": Random, "MNLP": MNLP},
            ner_dataset.subset(range(150)),
            ner_dataset.subset(range(150, 200)),
            config=ExperimentConfig(batch_size=20, rounds=2, repeats=1, seed=3),
        )
        for result in results.values():
            assert len(result.curve) == 3
            assert ((result.curve.values >= 0) & (result.curve.values <= 1)).all()

    def test_deterministic_given_seed(self, text_dataset):
        def run():
            return run_comparison(
                lambda: LinearSoftmax(epochs=4, seed=0),
                {"Random": Random},
                text_dataset.subset(range(200)),
                text_dataset.subset(range(200, 300)),
                config=ExperimentConfig(batch_size=15, rounds=2, repeats=2, seed=9),
            )

        a, b = run(), run()
        assert np.allclose(a["Random"].curve.values, b["Random"].curve.values)


class TestParallelRunner:
    """Parallel grids run as local workers of the work queue."""

    def test_parallel_byte_identical_to_serial(self, tmp_path):
        spec = ExperimentSpec(
            dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 7}),
            model=Spec(kind="linear", params={"epochs": 4, "seed": 0}),
            strategies={"Random": Spec(kind="random"), "Entropy": Spec(kind="entropy")},
            config=ExperimentConfig(batch_size=15, rounds=2, repeats=2, seed=9),
        )
        train, test, _task = spec.build_datasets()
        serial = run_comparison(
            spec.resolved_model(), spec.strategies, train, test, config=spec.config
        )
        parallel = run_distributed(spec, tmp_path / "q", workers=2, poll=0.05)
        assert set(serial) == set(parallel)
        for name in serial:
            a, b = serial[name], parallel[name]
            assert a.curve.values.tobytes() == b.curve.values.tobytes()
            assert a.std.tobytes() == b.std.tobytes()
            for run_a, run_b in zip(a.runs, b.runs):
                for record_a, record_b in zip(run_a.records, run_b.records):
                    assert record_a.metric == record_b.metric
                    assert np.array_equal(record_a.selected, record_b.selected)
