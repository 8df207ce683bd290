"""FHS: Fluctuation of the Historical Sequence (Sec. 4.3, Eq. 11).

The second proposed strategy: combine the current evaluation score with
the variance of the windowed historical sequence,

    F = ws * phi_t(x) + wf * Var(H_window(x)).

High fluctuation marks samples the updating model keeps changing its mind
about — boundary samples worth labeling.  Because the variance of a
bounded score sequence is numerically much smaller than the score itself
(compare the magnitudes in Table 6 of the paper), ``scale_fluctuation``
optionally normalises the variance term to the score's scale before the
weights are applied; the paper's raw form is the default.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import ConfigurationError
from .base import HistoryAwareStrategy, QueryStrategy, SelectionContext


class FHS(HistoryAwareStrategy):
    """Current score plus fluctuation of the history window.

    Parameters
    ----------
    base:
        Wrapped informative strategy.
    window:
        History window for the variance.
    score_weight, fluctuation_weight:
        The paper's ``ws`` and ``wf`` (Figure 5 sweeps ``wf`` with
        ``ws = 1 - wf``).
    scale_fluctuation:
        If True, the variance term is rescaled so its candidate-set mean
        matches the score term's mean before weighting.
    """

    def __init__(
        self,
        base: QueryStrategy,
        window: int = 3,
        score_weight: float = 0.5,
        fluctuation_weight: float = 0.5,
        scale_fluctuation: bool = False,
    ) -> None:
        super().__init__(base, window=window)
        if score_weight < 0 or fluctuation_weight < 0:
            raise ConfigurationError(
                f"weights must be non-negative, got ws={score_weight}, "
                f"wf={fluctuation_weight}"
            )
        if score_weight == 0 and fluctuation_weight == 0:
            raise ConfigurationError("at least one FHS weight must be positive")
        self.score_weight = score_weight
        self.fluctuation_weight = fluctuation_weight
        self.scale_fluctuation = scale_fluctuation

    @property
    def name(self) -> str:
        return f"FHS({self.base.name})"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        current = self.base_scores(model, context)
        fluctuation = context.history.fluctuation(context.unlabeled, self.window)
        if self.scale_fluctuation:
            fluct_mean = float(fluctuation.mean())
            if fluct_mean > 0:
                fluctuation = fluctuation * (abs(float(current.mean())) / fluct_mean)
        return self.score_weight * current + self.fluctuation_weight * fluctuation
