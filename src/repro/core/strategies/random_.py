"""Random sampling baseline (i.i.d. selection)."""

from __future__ import annotations

import numpy as np

from .base import QueryStrategy, SelectionContext


class Random(QueryStrategy):
    """Uniform random scores: the paper's i.i.d. baseline."""

    @property
    def name(self) -> str:
        return "Random"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        return context.rng.random(len(context.unlabeled))
