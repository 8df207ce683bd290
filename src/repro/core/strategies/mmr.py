"""Maximal-marginal-relevance diversity batch selection (Eq. 8).

Greedy batch construction: each pick maximises
``lambda * phi_S(x) - (1 - lambda) * max_sim(x, L)`` where ``L`` is the
labeled set *plus* the samples already picked into the current batch, so
one batch never contains near-duplicates.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import ConfigurationError, StrategyError
from .base import QueryStrategy, SelectionContext
from .density import candidate_vectors


class MMR(QueryStrategy):
    """Diversity-aware batch selection around an informative base.

    Parameters
    ----------
    base:
        The informative strategy providing ``phi_S``.
    balance:
        The paper's lambda: 1.0 = pure informativeness, 0.0 = pure
        diversity.
    """

    def __init__(self, base: QueryStrategy, balance: float = 0.7) -> None:
        if not 0 <= balance <= 1:
            raise ConfigurationError(f"balance must be in [0, 1], got {balance}")
        self.base = base
        self.balance = balance

    @property
    def name(self) -> str:
        return f"MMR({self.base.name}, lambda={self.balance})"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        """Non-batch score: informativeness penalised by similarity to L."""
        base_scores = np.asarray(self.base.scores(model, context), dtype=np.float64)
        vectors = candidate_vectors(context.candidates)
        if len(context.labeled):
            labeled_vectors = candidate_vectors(
                context.dataset.subset(context.labeled)
            )
            max_sim = (vectors @ labeled_vectors.T).max(axis=1)
        else:
            max_sim = np.zeros(len(vectors))
        return self.balance * base_scores - (1.0 - self.balance) * max_sim

    def select(self, model, context: SelectionContext, batch_size: int) -> np.ndarray:
        """Greedy MMR: re-penalise against picks made within the batch."""
        if batch_size > len(context.unlabeled):
            raise StrategyError(
                f"cannot select {batch_size} from {len(context.unlabeled)} unlabeled"
            )
        base_scores = np.asarray(self.base.scores(model, context), dtype=np.float64)
        vectors = candidate_vectors(context.candidates)
        if len(context.labeled):
            labeled_vectors = candidate_vectors(context.dataset.subset(context.labeled))
            max_sim = (vectors @ labeled_vectors.T).max(axis=1)
        else:
            max_sim = np.zeros(len(vectors))
        picked: list[int] = []
        available = np.ones(len(vectors), dtype=bool)
        for _ in range(batch_size):
            combined = self.balance * base_scores - (1.0 - self.balance) * max_sim
            combined[~available] = -np.inf
            choice = int(combined.argmax())
            picked.append(choice)
            available[choice] = False
            max_sim = np.maximum(max_sim, vectors @ vectors[choice])
        return context.unlabeled[np.asarray(picked, dtype=np.int64)]
