"""LHS: Learn from Historical Sequences (Sec. 4.4).

The third proposed strategy: a LambdaMART ranker, trained offline by
Algorithm 1 (:func:`repro.core.ranker_training.train_lhs_ranker`), scores
unlabeled samples from features of their historical evaluation sequences.

Following Sec. 4.4.1, selection does not rank the whole pool: a candidate
set is first formed from the top-scoring samples of one or more cheap
base strategies (entropy, LC, ...), and the ranker orders only those
candidates.  ``scores`` still ranks the full pool so LHS satisfies the
generic strategy contract (used by tests and diagnostics).
"""

from __future__ import annotations

import numpy as np

from ...exceptions import ConfigurationError, StrategyError
from ..selection import top_k_indices
from .base import HistoryAwareStrategy, QueryStrategy, SelectionContext


class LHS(HistoryAwareStrategy):
    """Learned (LambdaMART) query strategy over historical features.

    Parameters
    ----------
    base:
        The strategy whose scores populate the history store (the
        "specific query strategy S" of the paper).
    ranker:
        A fitted ranker bundle from
        :func:`~repro.core.ranker_training.train_lhs_ranker`; its feature
        extractor defines the feature layout.
    candidate_strategies:
        Extra cheap strategies whose top samples join the candidate set
        (the base is always included).
    candidate_factor:
        Candidate-set size per strategy, as a multiple of the batch size.
    """

    def __init__(
        self,
        base: QueryStrategy,
        ranker: "LHSRanker",
        candidate_strategies: "list[QueryStrategy] | None" = None,
        candidate_factor: int = 3,
    ) -> None:
        super().__init__(base, window=ranker.extractor.window)
        if candidate_factor < 1:
            raise ConfigurationError(
                f"candidate_factor must be >= 1, got {candidate_factor}"
            )
        self.ranker = ranker
        self.candidate_strategies = list(candidate_strategies or [])
        self.candidate_factor = candidate_factor

    @property
    def name(self) -> str:
        return f"LHS({self.base.name})"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        self.base_scores(model, context)
        positions = np.arange(len(context.unlabeled))
        features = self.ranker.extractor.extract(model, context, positions)
        return self.ranker.model.predict(features)

    def select(self, model, context: SelectionContext, batch_size: int) -> np.ndarray:
        if batch_size > len(context.unlabeled):
            raise StrategyError(
                f"cannot select {batch_size} from {len(context.unlabeled)} unlabeled"
            )
        current = self.base_scores(model, context)
        per_strategy = min(
            self.candidate_factor * batch_size, len(context.unlabeled)
        )
        candidate_positions = set(top_k_indices(current, per_strategy).tolist())
        for strategy in self.candidate_strategies:
            other = np.asarray(strategy.scores(model, context), dtype=np.float64)
            candidate_positions.update(top_k_indices(other, per_strategy).tolist())
        positions = np.asarray(sorted(candidate_positions), dtype=np.int64)
        if len(positions) < batch_size:
            positions = np.arange(len(context.unlabeled))
        features = self.ranker.extractor.extract(model, context, positions)
        ranking = self.ranker.model.predict(features)
        order = top_k_indices(ranking, batch_size, context.rng)
        return context.unlabeled[positions[order]]
