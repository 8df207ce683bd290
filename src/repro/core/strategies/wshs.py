"""WSHS: Weighted Sum of the Historical Sequence (Sec. 4.2, Eq. 9-10).

The first proposed strategy.  The score of a sample is the exponentially
weighted sum of its windowed historical evaluation sequence: the current
score has weight 1, the previous one 1/2, then 1/4, ...  With
``window=1`` this degrades exactly to the wrapped base strategy, which
the tests assert.
"""

from __future__ import annotations

import numpy as np

from .base import HistoryAwareStrategy, SelectionContext


class WSHS(HistoryAwareStrategy):
    """Exponentially decaying weighted history sum around any base."""

    @property
    def name(self) -> str:
        return f"WSHS({self.base.name})"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        self.base_scores(model, context)
        return context.history.weighted_sum(context.unlabeled, self.window)
