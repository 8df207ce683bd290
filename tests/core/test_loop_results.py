"""Extra coverage for ALResult bookkeeping and curve derivation."""

import numpy as np

from repro.core.session import SessionEngine, run_to_completion
from repro.core.strategies import Entropy, WSHS
from repro.eval.curves import samples_to_target
from repro.models.linear import LinearSoftmax


def run_session(dataset, strategy, **overrides):
    options = dict(batch_size=20, rounds=3, seed_or_rng=1)
    options.update(overrides)
    return run_to_completion(SessionEngine(
        LinearSoftmax(epochs=4, seed=0),
        strategy,
        dataset.subset(range(300)),
        dataset.subset(range(300, 400)),
        **options,
    ))


class TestALResult:
    def test_curve_label_defaults_to_strategy_name(self, text_dataset):
        result = run_session(text_dataset, WSHS(Entropy(), window=2))
        assert result.curve().label == "WSHS(Entropy)"

    def test_curve_label_override(self, text_dataset):
        result = run_session(text_dataset, Entropy())
        assert result.curve(label="custom").label == "custom"

    def test_selection_order_matches_records(self, text_dataset):
        result = run_session(text_dataset, Entropy())
        recorded = [r.selected for r in result.records if len(r.selected)]
        assert len(recorded) == len(result.selection_order)
        for a, b in zip(recorded, result.selection_order):
            assert np.array_equal(a, b)

    def test_selected_never_in_earlier_labeled(self, text_dataset):
        result = run_session(text_dataset, Entropy(), rounds=4)
        labeled: set[int] = set()
        for batch in result.selection_order:
            assert not labeled & set(batch.tolist())
            labeled |= set(batch.tolist())

    def test_samples_to_target_consistent_with_curve(self, text_dataset):
        result = run_session(text_dataset, Entropy(), rounds=4)
        curve = result.curve()
        midpoint = float(np.median(curve.values))
        needed = samples_to_target(curve, midpoint)
        assert needed is not None
        assert curve.value_at(needed) >= midpoint

    def test_history_strategy_name_propagated(self, text_dataset):
        result = run_session(text_dataset, WSHS(Entropy(), window=2))
        assert result.history.strategy_name == "WSHS(Entropy)"
