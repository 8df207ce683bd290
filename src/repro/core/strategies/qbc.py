"""Query-by-Committee with average KL divergence (Eq. 6).

A committee of model clones is trained on bootstrap resamples of the
current labeled set; samples on which the members' predictive
distributions disagree most (mean KL to the consensus) are selected.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import ConfigurationError, StrategyError
from ...models.base import Classifier
from .base import QueryStrategy, SelectionContext


class QBC(QueryStrategy):
    """Bootstrap committee disagreement for classifiers.

    Parameters
    ----------
    committee_size:
        Number of committee members retrained each round.
    """

    def __init__(self, committee_size: int = 3) -> None:
        if committee_size < 2:
            raise ConfigurationError(
                f"committee_size must be >= 2, got {committee_size}"
            )
        self.committee_size = committee_size

    @property
    def name(self) -> str:
        return f"QBC(C={self.committee_size})"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        if not isinstance(model, Classifier):
            raise StrategyError(f"QBC cannot score a {type(model).__name__}")
        return context.memoize_scores(
            ("qbc", self.committee_size, id(model)),
            lambda: self._disagreement(model, context),
        )

    def _disagreement(self, model, context: SelectionContext) -> np.ndarray:
        labeled = context.labeled
        if len(labeled) < 2:
            return context.rng.random(len(context.unlabeled))
        # In warm mode each member resumes from the round's fitted model
        # instead of training from scratch — same bootstrap resamples and
        # RNG stream, fewer epochs per member.  Cold mode is untouched.
        init_from = model if context.training_mode == "warm" else None
        member_probas = []
        for _ in range(self.committee_size):
            resample = context.rng.choice(labeled, size=len(labeled), replace=True)
            member = model.clone()
            member.fit(context.dataset.subset(resample), init_from=init_from)
            member_probas.append(member.predict_proba(context.candidates))
        stacked = np.stack(member_probas)  # (C, n, K)
        consensus = stacked.mean(axis=0)
        ratio = np.log(np.clip(stacked, 1e-12, None) / np.clip(consensus, 1e-12, None))
        kl_per_member = (stacked * ratio).sum(axis=2)  # (C, n)
        return kl_per_member.mean(axis=0)
