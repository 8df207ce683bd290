"""Query-strategy protocol, selection context, and lookup by kind.

A strategy's job per round (Sec. 2 of the paper): assign every unlabeled
sample a score and pick the ``batch_size`` best.  The
:class:`SelectionContext` carries everything a strategy may need — the
dataset, pool views, the :class:`~repro.core.history.HistoryStore`, the
round number, an RNG for tie-breaking, and (for committee-over-time
baselines) the recently fitted models — plus per-round caches so that
e.g. ``FHS(entropy)`` and a diagnostic probe don't recompute the model's
probabilities.

History-aware strategies derive from :class:`HistoryAwareStrategy`: they
wrap a base strategy, record its scores into the history store once per
round, and combine the stored sequence with the current score.

Strategy kinds are named, built and serialised by one registry,
:data:`repro.specs.STRATEGY_REGISTRY`.  :func:`create_strategy` and
:func:`registered_strategies` are lazy calls into it (the spec layer
sits above this one).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ...data.datasets import SequenceDataset, TextDataset
from ...exceptions import ConfigurationError, StrategyError
from ...models.base import Classifier, SequenceLabeler
from ..history import HistoryStore
from ..prediction_cache import PredictionCache
from ..selection import top_k_indices, top_k_reference


@dataclass
class SelectionContext:
    """Everything a query strategy can see in one round.

    Attributes
    ----------
    dataset:
        The full training dataset (labeled + unlabeled samples).
    unlabeled:
        Indices of currently unlabeled samples; all score vectors are
        aligned with this array.
    labeled:
        Indices of currently labeled samples.
    history:
        The shared history store for this run.
    round_index:
        1-based active-learning round number.
    rng:
        RNG for stochastic strategies and tie-breaking.
    model_history:
        Recently fitted models, oldest first, most recent last (only
        populated when the strategy requests it).
    training_mode:
        The engine's training mode (``"cold"`` or ``"warm"``).  Strategies
        that train auxiliary models (QBC committees) may mirror the warm
        fast path when it is ``"warm"``; ``"cold"`` keeps historical
        behaviour bit for bit.
    """

    dataset: "TextDataset | SequenceDataset"
    unlabeled: np.ndarray
    labeled: np.ndarray
    history: HistoryStore
    round_index: int
    rng: np.random.Generator
    model_history: list = field(default_factory=list)
    training_mode: str = "cold"
    #: Shared per-round forward-pass cache; the loop passes its own so
    #: strategy scoring and metric evaluation reuse predictions.  A
    #: stand-alone context (tests, diagnostics) gets a private one.
    cache: PredictionCache = field(default_factory=PredictionCache, repr=False)
    _candidates: "TextDataset | SequenceDataset | None" = field(default=None, repr=False)
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def candidates(self) -> "TextDataset | SequenceDataset":
        """The unlabeled samples as a dataset (built once per round)."""
        if self._candidates is None:
            self._candidates = self.dataset.subset(self.unlabeled)
        return self._candidates

    def probabilities(self, model: Classifier) -> np.ndarray:
        """Cached ``predict_proba`` of ``model`` on the candidates."""
        return self.cache.predict_proba(model, self.candidates)

    def token_marginals(self, model: SequenceLabeler) -> list[np.ndarray]:
        """Cached token marginals of ``model`` on the candidates."""
        return self.cache.token_marginals(model, self.candidates)

    def best_path_log_proba(self, model: SequenceLabeler) -> np.ndarray:
        """Cached Viterbi-path log-probabilities on the candidates."""
        return self.cache.best_path_log_proba(model, self.candidates)

    def memoize_scores(self, key: tuple, compute: Callable[[], np.ndarray]) -> np.ndarray:
        """Round-scoped memo for expensive multi-pass score vectors.

        BALD and QBC use this so a second ``scores`` call within the
        same round (e.g. a combined strategy plus a diagnostic probe)
        returns the first call's vector instead of re-running MC draws or
        retraining the committee — which would also consume extra RNG
        state and perturb every later selection.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


class QueryStrategy(ABC):
    """A scoring rule over unlabeled samples; higher scores are selected."""

    #: How many past fitted models the loop should retain for this
    #: strategy (0 = none).  HKLD sets this to its committee size.
    requires_model_history: int = 0

    #: Capability flag: ``scores`` is a deterministic, RNG-free function
    #: of the current model and the candidate set alone (no history, no
    #: model committee, no randomness).  History-aware wrappers use this
    #: to skip rescoring within a round: once such a base's scores are
    #: recorded for the current round, :meth:`HistoryStore.current_scores`
    #: already holds them bit for bit.
    model_only_scores: bool = False

    @property
    @abstractmethod
    def name(self) -> str:
        """Readable identifier used in reports, e.g. ``"WSHS(entropy)"``."""

    @abstractmethod
    def scores(
        self, model: "Classifier | SequenceLabeler", context: SelectionContext
    ) -> np.ndarray:
        """Score every sample in ``context.unlabeled`` (aligned array)."""

    def select(
        self,
        model: "Classifier | SequenceLabeler",
        context: SelectionContext,
        batch_size: int,
    ) -> np.ndarray:
        """Dataset indices of the ``batch_size`` best unlabeled samples.

        Ties are broken uniformly at random so runs with symmetric
        initial scores (e.g. an untrained model) don't systematically
        prefer low indices.  The pick runs through the partial
        :func:`~repro.core.selection.top_k_indices` — bit-identical to
        the full-sort :meth:`select_reference` oracle, O(n) in the pool.
        """
        score_vector = self._validated_scores(model, context, batch_size)
        order = top_k_indices(score_vector, batch_size, context.rng)
        return context.unlabeled[order]

    def select_reference(
        self,
        model: "Classifier | SequenceLabeler",
        context: SelectionContext,
        batch_size: int,
    ) -> np.ndarray:
        """Full-sort oracle for :meth:`select` (tests and benchmarks).

        Runs the historical ``np.lexsort((jitter, -scores))`` over the
        whole pool; :meth:`select` must match it bit for bit.
        """
        score_vector = self._validated_scores(model, context, batch_size)
        order = top_k_reference(score_vector, batch_size, context.rng)
        return context.unlabeled[order]

    def _validated_scores(
        self,
        model: "Classifier | SequenceLabeler",
        context: SelectionContext,
        batch_size: int,
    ) -> np.ndarray:
        """Shared ``select`` precondition checks + score computation."""
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if batch_size > len(context.unlabeled):
            raise StrategyError(
                f"cannot select {batch_size} samples from "
                f"{len(context.unlabeled)} unlabeled"
            )
        score_vector = np.asarray(self.scores(model, context), dtype=np.float64)
        if score_vector.shape != context.unlabeled.shape:
            raise StrategyError(
                f"{self.name}: scores shape {score_vector.shape} does not match "
                f"{len(context.unlabeled)} candidates"
            )
        return score_vector

    def __repr__(self) -> str:
        return self.name


class HistoryAwareStrategy(QueryStrategy):
    """A strategy that wraps a base strategy and reads its score history.

    Subclasses call :meth:`base_scores` exactly once per round; the base
    scores are recorded into ``context.history`` so the next round sees a
    one-step-longer sequence.  ``window`` is the history length ``l`` of
    Eq. (10).
    """

    def __init__(self, base: QueryStrategy, window: int = 3) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if isinstance(base, HistoryAwareStrategy):
            raise ConfigurationError(
                "history-aware strategies cannot wrap each other"
            )
        self.base = base
        self.window = window

    @property
    def requires_model_history(self) -> int:  # type: ignore[override]
        return self.base.requires_model_history

    def base_scores(
        self, model: "Classifier | SequenceLabeler", context: SelectionContext
    ) -> np.ndarray:
        """Compute the base strategy's current scores and record them.

        Short-circuit: when the base declares
        :attr:`QueryStrategy.model_only_scores` and this round's scores
        are already recorded, the history's last-observation cache *is*
        the current score vector (the model hasn't changed within a
        round), so rescoring is skipped entirely.  Bases that consume
        RNG or read mutable state don't qualify and are always re-asked.
        """
        history = context.history
        if self.base.model_only_scores and history.has_round(context.round_index):
            recorded = history.current_scores(context.unlabeled)
            if not np.isnan(recorded).any():
                return recorded
        scores = np.asarray(self.base.scores(model, context), dtype=np.float64)
        if not history.has_round(context.round_index):
            history.append(context.round_index, context.unlabeled, scores)
        return scores


def strategy_capabilities(strategy: QueryStrategy) -> dict:
    """A strategy's capability flags as plain JSON-compatible data.

    Surfaced in session snapshots and spec-validation notes so a grid
    document records which optimisations (round-level rescoring
    short-circuit, model-history retention) each strategy allows.
    Wrappers report their own flags plus their base's under ``"base"``.
    """
    capabilities = {
        "model_only_scores": bool(getattr(strategy, "model_only_scores", False)),
        "requires_model_history": int(getattr(strategy, "requires_model_history", 0)),
    }
    base = getattr(strategy, "base", None)
    if isinstance(base, QueryStrategy):
        capabilities["base"] = strategy_capabilities(base)
    return capabilities


# -- shared scoring helpers ----------------------------------------------------


def distribution_entropy(probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of a probability matrix (Eq. 4)."""
    clipped = np.clip(probabilities, 1e-12, None)
    return -(clipped * np.log(clipped)).sum(axis=-1)


# -- lookup by kind ------------------------------------------------------------


def create_strategy(key: str, **params) -> QueryStrategy:
    """``build_strategy(Spec(kind=key, params=params))``, case-insensitive.

    ``params`` are spec params (a wrapper's ``base`` is a nested spec
    dict); an unknown kind raises :class:`~repro.exceptions.SpecError`.
    """
    from ...specs.core import Spec
    from ...specs.strategies import build_strategy

    return build_strategy(Spec(kind=key, params=params))


def registered_strategies() -> list[str]:
    """Sorted strategy kinds (:func:`repro.specs.strategy_kinds`)."""
    from ...specs.strategies import strategy_kinds

    return strategy_kinds()
