"""Partial top-k selection: bit-for-bit equivalence with the full-sort oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.selection import top_k_indices, top_k_reference
from repro.core.strategies.base import QueryStrategy
from repro.models import LinearSoftmax

from .helpers import make_context


def _score_families(rng):
    """Score vectors spanning the tie regimes the fast path must handle."""
    n = 500
    return {
        "distinct": rng.permutation(n).astype(np.float64),
        "continuous": rng.random(n),
        "heavy-ties": rng.integers(0, 7, size=n).astype(np.float64),
        "two-values": np.where(rng.random(n) < 0.5, 1.0, 2.0),
        "all-equal": np.zeros(n),
        "boundary-ties": np.sort(rng.integers(0, 3, size=n))[::-1].astype(
            np.float64
        ),
        "with-inf": np.where(rng.random(n) < 0.1, np.inf, rng.random(n)),
        "negative": -rng.integers(0, 5, size=n).astype(np.float64),
    }


class TestJitterEquivalence:
    """With an RNG, top_k_indices must replay the lexsort path exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_across_tie_regimes(self, seed):
        rng = np.random.default_rng(seed)
        for label, scores in _score_families(rng).items():
            for k in (1, 3, 25, 100, len(scores) - 1):
                fast = top_k_indices(scores, k, np.random.default_rng(seed + 1))
                slow = top_k_reference(scores, k, np.random.default_rng(seed + 1))
                np.testing.assert_array_equal(
                    fast, slow, err_msg=f"{label}, k={k}"
                )

    def test_rng_stream_consumption_identical(self):
        """Both paths draw exactly len(scores) uniforms — callers after
        a selection must see the same RNG state either way."""
        scores = np.random.default_rng(0).random(400)
        rng_fast = np.random.default_rng(7)
        rng_slow = np.random.default_rng(7)
        top_k_indices(scores, 10, rng_fast)
        top_k_reference(scores, 10, rng_slow)
        assert rng_fast.bit_generator.state == rng_slow.bit_generator.state

    def test_k_zero_consumes_jitter_and_returns_empty(self):
        rng = np.random.default_rng(3)
        result = top_k_indices(np.arange(50, dtype=np.float64), 0, rng)
        assert result.size == 0
        # The jitter draw still happened: state moved past 50 uniforms.
        expected = np.random.default_rng(3)
        expected.random(50)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_k_at_least_n_returns_full_ordering(self):
        scores = np.random.default_rng(1).integers(0, 4, size=60).astype(float)
        for k in (60, 61, 1000):
            fast = top_k_indices(scores, k, np.random.default_rng(9))
            slow = top_k_reference(scores, k, np.random.default_rng(9))
            assert len(fast) == 60
            np.testing.assert_array_equal(fast, slow)

    def test_nan_scores_fall_back_to_lexsort(self):
        """NaN is a degenerate tie; the batch must still be legal and
        match the oracle."""
        rng = np.random.default_rng(2)
        scores = rng.random(100)
        scores[rng.choice(100, size=30, replace=False)] = np.nan
        fast = top_k_indices(scores, 20, np.random.default_rng(5))
        slow = top_k_reference(scores, 20, np.random.default_rng(5))
        np.testing.assert_array_equal(fast, slow)
        all_nan = np.full(40, np.nan)
        fast = top_k_indices(all_nan, 10, np.random.default_rng(6))
        slow = top_k_reference(all_nan, 10, np.random.default_rng(6))
        np.testing.assert_array_equal(fast, slow)
        assert len(np.unique(fast)) == 10


class TestStableEquivalence:
    """Without an RNG, ties break by ascending position (stable argsort)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_stable_argsort(self, seed):
        rng = np.random.default_rng(seed + 100)
        for label, scores in _score_families(rng).items():
            for k in (1, 25, 100):
                fast = top_k_indices(scores, k)
                oracle = np.argsort(-scores, kind="stable")[:k]
                np.testing.assert_array_equal(
                    fast, oracle, err_msg=f"{label}, k={k}"
                )
                np.testing.assert_array_equal(fast, top_k_reference(scores, k))

    def test_edge_cases(self):
        assert top_k_indices(np.array([3.0]), 1).tolist() == [0]
        assert top_k_indices(np.array([3.0]), 0).size == 0
        assert top_k_indices(np.empty(0), 5).size == 0

    def test_explicit_jitter_matches_rng_draw(self):
        scores = np.random.default_rng(4).integers(0, 3, size=200).astype(float)
        jitter = np.random.default_rng(11).random(200)
        via_jitter = top_k_indices(scores, 30, jitter=jitter)
        via_rng = top_k_indices(scores, 30, np.random.default_rng(11))
        np.testing.assert_array_equal(via_jitter, via_rng)

    def test_rejects_rng_and_jitter_together(self):
        with pytest.raises(ValueError):
            top_k_indices(
                np.arange(4.0), 2, np.random.default_rng(0), jitter=np.zeros(4)
            )

    def test_rejects_non_1d(self):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros((3, 3)), 2)
        with pytest.raises(ValueError):
            top_k_reference(np.zeros((3, 3)), 2)


class _ConstantStrategy(QueryStrategy):
    """All-equal scores: selection is decided purely by the jitter."""

    @property
    def name(self) -> str:
        return "Constant"

    def scores(self, model, context):
        return np.zeros(len(context.unlabeled))


class TestStrategySelect:
    def test_select_matches_select_reference(self, text_dataset, fitted_classifier):
        from repro.core.strategies.uncertainty import Entropy

        for strategy in (Entropy(), _ConstantStrategy()):
            fast = strategy.select(
                fitted_classifier, make_context(text_dataset, seed=42), 25
            )
            slow = strategy.select_reference(
                fitted_classifier, make_context(text_dataset, seed=42), 25
            )
            np.testing.assert_array_equal(fast, slow)

    def test_loop_unchanged_by_partial_selection(self, text_dataset):
        """End to end: a run's selections equal replaying every round
        through the reference oracle."""
        from repro.core.session import SessionEngine, run_to_completion
        from repro.core.strategies.uncertainty import Entropy

        class ReferenceEntropy(Entropy):
            def select(self, model, context, batch_size):
                return self.select_reference(model, context, batch_size)

        def run(strategy):
            return run_to_completion(SessionEngine(
                model_prototype=LinearSoftmax(epochs=4, seed=0),
                strategy=strategy,
                train_dataset=text_dataset.subset(range(300)),
                test_dataset=text_dataset.subset(range(300, 380)),
                batch_size=20,
                rounds=3,
                seed_or_rng=17,
            ))

        fast, slow = run(Entropy()), run(ReferenceEntropy())
        assert [r.metric for r in fast.records] == [r.metric for r in slow.records]
        for a, b in zip(fast.selection_order, slow.selection_order):
            np.testing.assert_array_equal(a, b)
