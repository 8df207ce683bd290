"""Expected Gradient Length (Eq. 5).

Selects samples whose labeling would change the model most.  The gradient
marginalisation lives in the model (closed form for log-linear models,
per-class backprop for networks); the strategy just requires the
capability and surfaces a clear error otherwise.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import StrategyError
from ...models.base import Classifier, supports_gradient_lengths
from .base import QueryStrategy, SelectionContext


class EGL(QueryStrategy):
    """Expected loss-gradient norm over all candidate labels."""

    model_only_scores = True

    @property
    def name(self) -> str:
        return "EGL"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        if not isinstance(model, Classifier) or not supports_gradient_lengths(model):
            raise StrategyError(
                f"EGL requires a Classifier with expected_gradient_lengths; "
                f"{type(model).__name__} does not provide it"
            )
        return np.asarray(model.expected_gradient_lengths(context.candidates))
