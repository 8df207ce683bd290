"""Uncertainty-based query strategies: Entropy, Least Confidence, Margin.

Eq. (3) and (4) of the paper for classifiers.  For sequence labelers the
same quantities are computed the way the NER literature does: entropy is
the mean token-marginal entropy, and least confidence is one minus the
probability of the whole Viterbi path — which is exactly the
length-biased score that MNLP (Eq. 13) later normalises.
"""

from __future__ import annotations

import numpy as np

from ...models.base import Classifier, SequenceLabeler
from ...exceptions import StrategyError
from .base import QueryStrategy, SelectionContext, distribution_entropy


class Entropy(QueryStrategy):
    """Predictive-distribution entropy (Eq. 4)."""

    model_only_scores = True

    @property
    def name(self) -> str:
        return "Entropy"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        if isinstance(model, Classifier):
            return distribution_entropy(context.probabilities(model))
        if isinstance(model, SequenceLabeler):
            marginals = context.token_marginals(model)
            return np.array(
                [float(distribution_entropy(m).mean()) for m in marginals]
            )
        raise StrategyError(f"Entropy cannot score a {type(model).__name__}")


class LeastConfidence(QueryStrategy):
    """1 - probability of the most likely prediction (Eq. 3)."""

    model_only_scores = True

    @property
    def name(self) -> str:
        return "LC"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        if isinstance(model, Classifier):
            return 1.0 - context.probabilities(model).max(axis=1)
        if isinstance(model, SequenceLabeler):
            return 1.0 - np.exp(context.best_path_log_proba(model))
        raise StrategyError(f"LC cannot score a {type(model).__name__}")


class Margin(QueryStrategy):
    """1 - (top probability - runner-up probability); classifiers only."""

    model_only_scores = True

    @property
    def name(self) -> str:
        return "Margin"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        if not isinstance(model, Classifier):
            raise StrategyError(f"Margin cannot score a {type(model).__name__}")
        probabilities = np.sort(context.probabilities(model), axis=1)
        return 1.0 - (probabilities[:, -1] - probabilities[:, -2])
