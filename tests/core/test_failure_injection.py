"""Failure-injection tests: the loop must fail loudly on broken strategies."""

import numpy as np
import pytest

from repro.core.pool import Pool
from repro.core.session import SessionEngine, run_to_completion
from repro.core.strategies.base import QueryStrategy, SelectionContext
from repro.exceptions import PoolError, StrategyError
from repro.models.linear import LinearSoftmax


class WrongShapeStrategy(QueryStrategy):
    """Returns a score vector of the wrong length."""

    @property
    def name(self) -> str:
        return "WrongShape"

    def scores(self, model, context):
        return np.zeros(3)


class NaNStrategy(QueryStrategy):
    """Returns all-NaN scores; selection must still return a legal batch."""

    @property
    def name(self) -> str:
        return "NaN"

    def scores(self, model, context):
        return np.full(len(context.unlabeled), np.nan)


class DuplicateSelectingStrategy(QueryStrategy):
    """Maliciously selects the same index twice."""

    @property
    def name(self) -> str:
        return "Duplicates"

    def scores(self, model, context):
        return np.zeros(len(context.unlabeled))

    def select(self, model, context, batch_size):
        first = context.unlabeled[0]
        return np.full(batch_size, first)


def _run(dataset, strategy, **overrides):
    options = dict(batch_size=10, rounds=2, seed_or_rng=0)
    options.update(overrides)
    return run_to_completion(SessionEngine(
        LinearSoftmax(epochs=3, seed=0),
        strategy,
        dataset.subset(range(200)),
        dataset.subset(range(200, 260)),
        **options,
    ))


class TestLoopFailures:
    def test_wrong_shape_raises_strategy_error(self, text_dataset):
        with pytest.raises(StrategyError):
            _run(text_dataset, WrongShapeStrategy())

    def test_duplicate_selection_raises_pool_error(self, text_dataset):
        with pytest.raises(PoolError):
            _run(text_dataset, DuplicateSelectingStrategy())

    def test_nan_scores_still_select_legal_batch(self, text_dataset):
        """NaN scores are a degenerate tie: lexsort still yields a batch."""
        result = _run(text_dataset, NaNStrategy())
        for selected in result.selection_order:
            assert len(np.unique(selected)) == len(selected)


class TestContextIsFreshEachRound:
    def test_unlabeled_shrinks_between_rounds(self, text_dataset):
        seen_sizes = []

        class Spy(QueryStrategy):
            @property
            def name(self) -> str:
                return "Spy"

            def scores(self, model, context):
                seen_sizes.append(len(context.unlabeled))
                return context.rng.random(len(context.unlabeled))

        _run(text_dataset, Spy(), rounds=3)
        assert seen_sizes == sorted(seen_sizes, reverse=True)
        assert seen_sizes[0] - seen_sizes[1] == 10

    def test_round_index_advances(self, text_dataset):
        rounds_seen = []

        class Spy(QueryStrategy):
            @property
            def name(self) -> str:
                return "Spy"

            def scores(self, model, context):
                rounds_seen.append(context.round_index)
                return context.rng.random(len(context.unlabeled))

        _run(text_dataset, Spy(), rounds=3)
        assert rounds_seen == [1, 2, 3]
