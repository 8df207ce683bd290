"""Tests for whole sessions: an engine run to completion on the oracle labels."""

import numpy as np
import pytest

from repro.core.session import SessionEngine, run_to_completion
from repro.core.strategies import Entropy, HKLD, Random, WSHS
from repro.exceptions import ConfigurationError
from repro.models.linear import LinearSoftmax


def make_engine(dataset, strategy, **overrides):
    options = dict(
        batch_size=20,
        rounds=4,
        seed_or_rng=0,
    )
    options.update(overrides)
    return SessionEngine(
        LinearSoftmax(epochs=5, seed=0),
        strategy,
        dataset.subset(range(400)),
        dataset.subset(range(400, 600)),
        **options,
    )


def run(dataset, strategy, **overrides):
    return run_to_completion(make_engine(dataset, strategy, **overrides))


class TestRunShape:
    def test_curve_has_rounds_plus_one_points(self, text_dataset):
        result = run(text_dataset, Random())
        curve = result.curve()
        assert len(curve) == 5

    def test_labeled_counts_progression(self, text_dataset):
        result = run(text_dataset, Random())
        counts = [record.labeled_count for record in result.records]
        assert counts == [20, 40, 60, 80, 100]

    def test_batches_disjoint(self, text_dataset):
        result = run(text_dataset, Entropy())
        all_selected = np.concatenate(result.selection_order)
        assert len(np.unique(all_selected)) == len(all_selected)

    def test_final_record_has_no_selection(self, text_dataset):
        result = run(text_dataset, Random())
        assert len(result.records[-1].selected) == 0

    def test_metric_in_unit_interval(self, text_dataset):
        result = run(text_dataset, Entropy())
        values = result.curve().values
        assert ((values >= 0) & (values <= 1)).all()

    def test_final_model_exposed(self, text_dataset):
        result = run(text_dataset, Random())
        assert result.final_model is not None


class TestDeterminism:
    def test_same_seed_same_run(self, text_dataset):
        a = run(text_dataset, Entropy(), seed_or_rng=5)
        b = run(text_dataset, Entropy(), seed_or_rng=5)
        assert np.allclose(a.curve().values, b.curve().values)
        for x, y in zip(a.selection_order, b.selection_order):
            assert np.array_equal(x, y)

    def test_different_seed_differs(self, text_dataset):
        a = run(text_dataset, Random(), seed_or_rng=1)
        b = run(text_dataset, Random(), seed_or_rng=2)
        assert not np.array_equal(a.selection_order[0], b.selection_order[0])



class TestHistoryIntegration:
    def test_history_recorded_for_history_strategy(self, text_dataset):
        result = run(text_dataset, WSHS(Entropy(), window=3))
        assert result.history.num_rounds == 4

    def test_history_empty_for_plain_strategy(self, text_dataset):
        result = run(text_dataset, Entropy())
        assert result.history.num_rounds == 0

    def test_selected_scores_from_history(self, text_dataset):
        result = run(text_dataset, WSHS(Entropy(), window=3))
        for record in result.records[:-1]:
            assert np.isfinite(record.selected_scores).all()

    def test_model_history_kept_for_hkld(self, text_dataset):
        result = run(text_dataset, HKLD(committee_size=2))
        assert len(result.curve()) == 5


class TestValidation:
    def test_pool_too_small(self, text_dataset):
        with pytest.raises(ConfigurationError):
            make_engine(text_dataset, Random(), rounds=100)

    def test_bad_batch(self, text_dataset):
        with pytest.raises(ConfigurationError):
            make_engine(text_dataset, Random(), batch_size=0)

    def test_bad_rounds(self, text_dataset):
        with pytest.raises(ConfigurationError):
            make_engine(text_dataset, Random(), rounds=0)

    def test_bad_initial(self, text_dataset):
        with pytest.raises(ConfigurationError):
            make_engine(text_dataset, Random(), initial_size=0)

    def test_custom_initial_size(self, text_dataset):
        result = run(text_dataset, Random(), initial_size=50)
        assert result.records[0].labeled_count == 50


class TestModelHistoryValidation:
    """requires_model_history doubles as a slice bound, so it must be a
    checked non-negative int — a strategy returning True would silently
    keep exactly one model."""

    def _strategy_with(self, value):
        class BadStrategy(Random):
            requires_model_history = value

        return BadStrategy()

    def test_bool_rejected(self, text_dataset):
        with pytest.raises(ConfigurationError, match="requires_model_history"):
            make_engine(text_dataset, self._strategy_with(True))

    def test_negative_rejected(self, text_dataset):
        with pytest.raises(ConfigurationError, match="requires_model_history"):
            make_engine(text_dataset, self._strategy_with(-1))

    def test_non_numeric_rejected(self, text_dataset):
        with pytest.raises(ConfigurationError, match="requires_model_history"):
            make_engine(text_dataset, self._strategy_with("2"))

    def test_numpy_integer_accepted(self, text_dataset):
        result = run(text_dataset, self._strategy_with(np.int64(1)), rounds=2)
        assert len(result.curve()) == 3

    def test_history_trimmed_to_requested_count(self, text_dataset):
        seen_lengths = []

        class Probe(Random):
            requires_model_history = 2

            def scores(self, model, context):
                seen_lengths.append(len(context.model_history))
                return super().scores(model, context)

        run(text_dataset, Probe(), rounds=4)
        assert seen_lengths[0] == 1  # only the first round's model so far
        assert max(seen_lengths) == 2  # never more than requested
