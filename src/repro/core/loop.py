"""The pool-based active-learning driver (Figure 1 of the paper).

Per round: (re)train the model on the labeled pool, evaluate it on the
test split, let the query strategy score every unlabeled sample (history-
aware strategies record their base scores into the shared
:class:`~repro.core.history.HistoryStore` as a side effect), move the
selected batch into the labeled pool, repeat.  The first labeled batch is
drawn at random, as in the paper's setup (Sec. 5.2.1).

:class:`ActiveLearningLoop` is the *closed* form of the loop — every
proposed batch is answered immediately from the dataset's own labels (the
simulation oracle of the paper's experiments).  The loop body itself
lives in :class:`~repro.core.session.SessionEngine`, a re-entrant state
machine that also supports external annotators, lifecycle observers, and
mid-run snapshot/resume; this class builds an engine and drives it to
completion, producing byte-identical results to the historical monolithic
implementation.

The result object keeps the full audit trail — per-round records,
learning curve, the history store — which the Table 6 benchmark uses to
compute WSHS/FHS diagnostics of whatever the strategy selected.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..data.datasets import SequenceDataset, TextDataset
from ..eval.metrics import evaluate_model
from ..rng import ensure_rng
from .session import ALResult, RoundRecord, SessionEngine, run_to_completion
from .strategies.base import QueryStrategy

# Re-exported for callers that historically imported these from here.
__all__ = ["ALResult", "ActiveLearningLoop", "RoundRecord"]


class ActiveLearningLoop:
    """Configured, repeatable pool-based AL experiment.

    Parameters
    ----------
    model_prototype:
        Unfitted model; a fresh clone is trained from scratch each round
        (deterministic given its seed).
    strategy:
        The query strategy under test.
    train_dataset, test_dataset:
        Pool to annotate from and held-out evaluation split.
    batch_size:
        Samples annotated per round (the paper uses 25 for binary text
        classification, 100 for TREC and NER).
    rounds:
        Number of strategy-driven annotation rounds.
    initial_size:
        Size of the random initial labeled set (defaults to
        ``batch_size``).
    metric:
        Custom ``f(model, dataset) -> float``; defaults to the paper's
        metric for the model family (accuracy / span F1).  A metric whose
        signature declares a ``cache`` keyword receives the loop's
        per-round :class:`~repro.core.prediction_cache.PredictionCache`.
    seed_or_rng:
        Controls the initial batch, strategy tie-breaks, and any
        stochastic strategy internals.
    reseed_model:
        When True (default) and the model exposes a ``seed`` attribute,
        each round's clone gets a fresh seed drawn from the loop RNG.
        This reproduces the per-iteration training stochasticity of the
        paper's fine-tuned networks (mini-batch order, dropout), which is
        precisely the evaluation noise the historical sequence averages
        out; the run as a whole stays deterministic given
        ``seed_or_rng``.
    history_limit:
        Cap the history store at this many most-recent rounds (the
        paper's O(l*N) space bound; see Table 2).  Must be at least the
        strategy's window or windowed statistics would be truncated;
        ``None`` (default) keeps the full history for post-hoc analysis.
    training_mode:
        ``"cold"`` (default) refits each round's model from scratch —
        byte-identical to historical behaviour.  ``"warm"`` resumes each
        round's fit from the previous round's parameters (fewer epochs)
        for model families that support it; deterministic given the run
        seed, but a different (faster) optimisation trajectory.
    """

    def __init__(
        self,
        model_prototype,
        strategy: QueryStrategy,
        train_dataset: "TextDataset | SequenceDataset",
        test_dataset: "TextDataset | SequenceDataset",
        batch_size: int = 25,
        rounds: int = 20,
        initial_size: "int | None" = None,
        metric: "Callable[[object, object], float] | None" = None,
        seed_or_rng: "int | np.random.Generator | None" = None,
        reseed_model: bool = True,
        history_limit: "int | None" = None,
        training_mode: str = "cold",
    ) -> None:
        self._rng = ensure_rng(seed_or_rng)
        # Validate eagerly with a throwaway engine so misconfiguration
        # fails at construction, not at run() time.  The probe performs
        # no work, draws nothing from the RNG, and is discarded.
        probe = SessionEngine(
            model_prototype,
            strategy,
            train_dataset,
            test_dataset,
            batch_size=batch_size,
            rounds=rounds,
            initial_size=initial_size,
            metric=metric,
            seed_or_rng=self._rng,
            reseed_model=reseed_model,
            history_limit=history_limit,
            training_mode=training_mode,
        )
        self.model_prototype = model_prototype
        self.strategy = strategy
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.batch_size = batch_size
        self.rounds = rounds
        self.initial_size = probe.initial_size
        self.metric = probe.metric
        self.reseed_model = reseed_model
        self.history_limit = history_limit
        self.training_mode = training_mode
        self._keep_models = probe._keep_models

    def build_engine(self, observers: Sequence = ()) -> SessionEngine:
        """A fresh :class:`SessionEngine` over this loop's configuration.

        The engine consumes the loop's own RNG, so interleaving
        :meth:`build_engine` / :meth:`run` calls continues one random
        stream exactly as repeated :meth:`run` calls always have.
        """
        return SessionEngine(
            self.model_prototype,
            self.strategy,
            self.train_dataset,
            self.test_dataset,
            batch_size=self.batch_size,
            rounds=self.rounds,
            initial_size=self.initial_size,
            metric=None if self.metric is evaluate_model else self.metric,
            seed_or_rng=self._rng,
            reseed_model=self.reseed_model,
            history_limit=self.history_limit,
            training_mode=self.training_mode,
            observers=observers,
        )

    def run(self, observers: Sequence = ()) -> ALResult:
        """Execute the full loop and return the audit trail.

        Every proposed batch — including the random initial one — is
        answered with the training dataset's own labels.
        """
        return run_to_completion(self.build_engine(observers))
