"""MNLP: Maximum Normalized Log Probability (Shen et al., 2018; Eq. 13).

Sequence least-confidence sums log probabilities over tokens, so it is
biased toward long sentences; MNLP removes the bias by dividing the
best-path log probability by the sentence length:

    score(x) = 1 - (1/n) log p(y* | x).

Higher scores mean less confident (per token), so top-k selection matches
the paper.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import StrategyError
from ...models.base import SequenceLabeler
from .base import QueryStrategy, SelectionContext


class MNLP(QueryStrategy):
    """Length-normalised sequence uncertainty for NER."""

    model_only_scores = True

    @property
    def name(self) -> str:
        return "MNLP"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        if not isinstance(model, SequenceLabeler):
            raise StrategyError(f"MNLP requires a SequenceLabeler, got {type(model).__name__}")
        log_probas = context.best_path_log_proba(model)
        lengths = np.maximum(context.candidates.lengths(), 1)
        return 1.0 - log_probas / lengths
