"""Historical baselines of Davy & Luz (2007): HUS and HKLD.

HUS ("History Uncertainty Sampling") scores each sample with the plain,
*unweighted* sum of its last ``k`` evaluation results — the closest prior
work to WSHS, which the paper's experiments show barely improves on the
base strategy because early and recent scores get equal weight.

HKLD builds a committee out of the models trained in the last ``k``
iterations and selects samples by the average KL divergence between the
members' predictions and their mean — the committee varies over *time*
rather than over bootstrap resamples.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import ConfigurationError, StrategyError
from ...models.base import Classifier
from .base import HistoryAwareStrategy, QueryStrategy, SelectionContext


class HUS(HistoryAwareStrategy):
    """Unweighted sum of the last ``window`` evaluation scores."""

    @property
    def name(self) -> str:
        return f"HUS({self.base.name})"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        self.base_scores(model, context)
        window = context.history.window_matrix(context.unlabeled, self.window)
        return np.nansum(window, axis=1)


class HKLD(QueryStrategy):
    """Average KL disagreement of the models from the last ``k`` rounds.

    Parameters
    ----------
    committee_size:
        How many recent models form the committee (the loop retains this
        many because of :attr:`requires_model_history`).
    """

    def __init__(self, committee_size: int = 3) -> None:
        if committee_size < 2:
            raise ConfigurationError(
                f"committee_size must be >= 2, got {committee_size}"
            )
        self.committee_size = committee_size

    @property
    def requires_model_history(self) -> int:  # type: ignore[override]
        return self.committee_size

    @property
    def name(self) -> str:
        return f"HKLD(k={self.committee_size})"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        if not isinstance(model, Classifier):
            raise StrategyError(f"HKLD cannot score a {type(model).__name__}")
        committee = list(context.model_history[-self.committee_size :])
        if model is not (committee[-1] if committee else None):
            committee.append(model)
        if len(committee) < 2:
            # First round: no history yet, fall back to the current model's
            # own uncertainty so the run can bootstrap.
            probabilities = context.probabilities(model)
            clipped = np.clip(probabilities, 1e-12, None)
            return -(clipped * np.log(clipped)).sum(axis=1)
        stacked = np.stack(
            [member.predict_proba(context.candidates) for member in committee]
        )
        consensus = stacked.mean(axis=0)
        ratio = np.log(np.clip(stacked, 1e-12, None) / np.clip(consensus, 1e-12, None))
        return (stacked * ratio).sum(axis=2).mean(axis=0)
