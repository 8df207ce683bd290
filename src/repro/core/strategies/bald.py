"""BALD: Bayesian uncertainty via MC dropout (Gal et al., 2017).

The mutual information between the prediction and the model posterior,

    I(y; w) = H(E_w[p(y|x,w)]) - E_w[H(p(y|x,w))],

estimated with ``n_draws`` stochastic forward passes.  Classifiers must
support MC-dropout sampling; sequence labelers use their stochastic token
marginals, with the per-token mutual information averaged over the
sentence (our sequence-model analogue, documented in DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ...exceptions import ConfigurationError, StrategyError
from ...models.base import (
    Classifier,
    SequenceLabeler,
    supports_stochastic_predictions,
)
from .base import QueryStrategy, SelectionContext, distribution_entropy


class BALD(QueryStrategy):
    """MC-dropout mutual information.

    Parameters
    ----------
    n_draws:
        Number of stochastic forward passes per round.
    """

    def __init__(self, n_draws: int = 8) -> None:
        if n_draws < 2:
            raise ConfigurationError(f"n_draws must be >= 2, got {n_draws}")
        self.n_draws = n_draws

    @property
    def name(self) -> str:
        return f"BALD(T={self.n_draws})"

    def scores(self, model, context: SelectionContext) -> np.ndarray:
        if not supports_stochastic_predictions(model):
            raise StrategyError(
                f"BALD requires MC-dropout sampling; {type(model).__name__} "
                "does not provide it"
            )
        return context.memoize_scores(
            ("bald", self.n_draws, id(model)),
            lambda: self._mutual_information(model, context),
        )

    def _mutual_information(self, model, context: SelectionContext) -> np.ndarray:
        if isinstance(model, Classifier):
            draws = model.predict_proba_samples(
                context.candidates, self.n_draws, context.rng
            )  # (T, n, C)
            predictive = distribution_entropy(draws.mean(axis=0))
            expected = distribution_entropy(draws).mean(axis=0)
            return predictive - expected
        if isinstance(model, SequenceLabeler):
            sentence_draws = model.token_marginal_samples(
                context.candidates, self.n_draws, context.rng
            )  # list of (T, L, K)
            scores = np.empty(len(sentence_draws))
            for index, draws in enumerate(sentence_draws):
                predictive = distribution_entropy(draws.mean(axis=0))  # (L,)
                expected = distribution_entropy(draws).mean(axis=0)  # (L,)
                scores[index] = float((predictive - expected).mean())
            return scores
        raise StrategyError(f"BALD cannot score a {type(model).__name__}")
