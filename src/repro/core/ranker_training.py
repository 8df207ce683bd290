"""Algorithm 1: training the LHS active-learning ranker.

Two phases, matching Sec. 4.4 of the paper:

1. **Predictor phase** — run a short history-collecting pass with the base
   strategy on the (labeled) ranker-training dataset and fit the
   next-score predictor (LSTM by default) on the collected sequences.
2. **Collection phase** — Algorithm 1 proper: per round, train the model
   on the labeled set, build a candidate set from the top samples of
   cheap base strategies, and for every candidate measure
   ``Eval(M') - Eval(M)`` after adding it.  Each round becomes one
   LambdaMART query; the deltas are discretised into equal-interval
   relevance levels (Sec. 4.4.3).

The returned :class:`LHSRanker` bundles the fitted LambdaMART model with
the feature extractor (including the fitted predictor) so it can be moved
across datasets of the same task, exactly as the paper transfers a ranker
trained on Subj to MR and SST-2.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass, field

import numpy as np

from ..data.datasets import SequenceDataset, TextDataset
from ..exceptions import ConfigurationError
from ..ltr.lambdamart import LambdaMART, RankingDataset
from ..rng import ensure_rng, spawn
from ..timeseries.predictor import (
    ARNextScorePredictor,
    LSTMNextScorePredictor,
    NextScorePredictor,
)
from .features import RankingFeatureExtractor
from .history import HistoryStore
from .pool import Pool
from .selection import top_k_indices
from .session import TRAINING_MODES
from .strategies.base import QueryStrategy, SelectionContext
from .strategies.uncertainty import Entropy, LeastConfidence

logger = logging.getLogger(__name__)


@dataclass
class LHSRanker:
    """A trained LHS ranker: LambdaMART model + feature extractor.

    Attributes
    ----------
    model:
        The fitted LambdaMART ranker.
    extractor:
        Feature extractor (carrying the fitted next-score predictor).
    base_name:
        Name of the strategy whose history the features were built from.
    training_rows:
        Number of (candidate, delta) pairs collected by Algorithm 1.
    source:
        Path the ranker was loaded from (set by
        :func:`repro.persistence.load_lhs_ranker`), or ``None`` for an
        in-memory ranker.  Strategy specs reference rankers by this
        path rather than inlining the model.
    """

    model: LambdaMART
    extractor: RankingFeatureExtractor
    base_name: str = ""
    training_rows: int = 0
    source: "str | None" = None


@dataclass
class RankerTrainingConfig:
    """Knobs of Algorithm 1 (defaults sized for laptop-scale runs).

    Attributes
    ----------
    rounds:
        Collection rounds (= LambdaMART queries).
    candidates_per_round:
        Candidate-set size |C| evaluated per round.
    initial_size:
        Random initial labeled set.
    add_per_round:
        How many best candidates join the labeled set after each round
        (line 11 of Algorithm 1).
    window:
        History window for the features.
    levels:
        Number of equal-interval relevance levels (Sec. 4.4.3).
    predictor:
        ``"lstm"``, ``"ar"``, or ``None`` (persistence fallback).
    predictor_rounds:
        Length of the phase-1 history-collection pass.
    eval_size:
        Test-set subsample used for Eval(M') (None = full test set).
    feature_flags:
        Ablation switches forwarded to the extractor.
    training_mode:
        ``"cold"`` (default) clones and refits every model from scratch —
        byte-identical to historical behaviour.  ``"warm"`` resumes each
        per-round model from the previous round's parameters, and each
        per-candidate model from the current round's model (fewer
        epochs, same seeds).
    """

    rounds: int = 6
    candidates_per_round: int = 12
    initial_size: int = 20
    add_per_round: int = 3
    window: int = 5
    levels: int = 4
    predictor: "str | None" = "lstm"
    predictor_rounds: int = 8
    max_predictor_sequences: int = 400
    eval_size: "int | None" = None
    lambdamart: LambdaMART | None = None
    feature_flags: dict = field(default_factory=dict)
    training_mode: str = "cold"

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if self.candidates_per_round < 2:
            raise ConfigurationError(
                f"candidates_per_round must be >= 2, got {self.candidates_per_round}"
            )
        if self.levels < 2:
            raise ConfigurationError(f"levels must be >= 2, got {self.levels}")
        if self.predictor not in (None, "lstm", "ar"):
            raise ConfigurationError(
                f"predictor must be 'lstm', 'ar', or None, got {self.predictor!r}"
            )
        if self.training_mode not in TRAINING_MODES:
            raise ConfigurationError(
                f"training_mode must be one of {TRAINING_MODES}, "
                f"got {self.training_mode!r}"
            )


def _evaluate(model, dataset, indices: "np.ndarray | None") -> float:
    subset = dataset if indices is None else dataset.subset(indices)
    if hasattr(model, "accuracy"):
        return model.accuracy(subset)
    return model.token_accuracy(subset)


def _make_predictor(kind: "str | None", seed: int) -> NextScorePredictor | None:
    if kind == "lstm":
        return LSTMNextScorePredictor(seed=seed)
    if kind == "ar":
        return ARNextScorePredictor()
    return None


def _fit_round_model(model_prototype, dataset, warm_source, training_mode: str):
    """One round's model: a fresh clone fitted cold, or in warm mode
    resumed from ``warm_source`` (``None`` in the first round)."""
    init_from = warm_source if training_mode == "warm" else None
    return model_prototype.clone().fit(dataset, init_from=init_from)


def _collect_history(
    model_prototype,
    dataset: "TextDataset | SequenceDataset",
    base: QueryStrategy,
    rounds: int,
    initial_size: int,
    batch_size: int,
    rng: np.random.Generator,
    training_mode: str = "cold",
) -> HistoryStore:
    """Phase 1: run ``base`` for a few rounds just to grow sequences."""
    history = HistoryStore(len(dataset), strategy_name=base.name)
    pool = Pool(len(dataset), initial_labeled=rng.choice(
        len(dataset), size=min(initial_size, len(dataset) - 1), replace=False
    ))
    previous = None
    for round_index in range(1, rounds + 1):
        if pool.num_unlabeled <= batch_size:
            break
        model = _fit_round_model(
            model_prototype,
            dataset.subset(pool.labeled_indices),
            previous,
            training_mode,
        )
        previous = model
        context = SelectionContext(
            dataset=dataset,
            unlabeled=pool.unlabeled_indices,
            labeled=pool.labeled_indices,
            history=history,
            round_index=round_index,
            rng=rng,
            training_mode=training_mode,
        )
        scores = np.asarray(base.scores(model, context), dtype=np.float64)
        history.append(round_index, context.unlabeled, scores)
        batch = context.unlabeled[top_k_indices(scores, batch_size)]
        pool.label(batch)
    return history


def _delta_levels(deltas: np.ndarray, levels: int) -> np.ndarray:
    """Equal-interval discretisation of improvement deltas (Sec. 4.4.3)."""
    low, high = float(deltas.min()), float(deltas.max())
    if high - low < 1e-12:
        return np.zeros(len(deltas), dtype=np.int64)
    edges = np.linspace(low, high, levels + 1)[1:-1]
    return np.digitize(deltas, edges)


def train_lhs_ranker(
    model_prototype,
    train_dataset: "TextDataset | SequenceDataset",
    test_dataset: "TextDataset | SequenceDataset",
    base: QueryStrategy | None = None,
    candidate_strategies: "list[QueryStrategy] | None" = None,
    config: RankerTrainingConfig | None = None,
    seed_or_rng: "int | np.random.Generator | None" = None,
) -> LHSRanker:
    """Run Algorithm 1 and return a ready-to-use :class:`LHSRanker`.

    Parameters
    ----------
    model_prototype:
        Unfitted model whose clones are (re)trained throughout.
    train_dataset, test_dataset:
        The *labeled* dataset the ranker is trained on (the paper uses
        Subj) and the held-out split used for Eval(M).
    base:
        Strategy whose history feeds the features (default Entropy).
    candidate_strategies:
        Cheap strategies whose top samples form the candidate set
        (default ``[base, LeastConfidence()]`` per Algorithm 1 line 5).
    """
    config = config or RankerTrainingConfig()
    rng = ensure_rng(seed_or_rng)
    predictor_rng, collect_rng = spawn(rng, 2)
    base = base or Entropy()
    if candidate_strategies is None:
        candidate_strategies = [base, LeastConfidence()]

    # Phase 1: fit the next-score predictor on collected sequences.
    predictor = _make_predictor(config.predictor, seed=int(predictor_rng.integers(2**31)))
    if predictor is not None:
        warmup = _collect_history(
            model_prototype,
            train_dataset,
            base,
            rounds=config.predictor_rounds,
            initial_size=config.initial_size,
            batch_size=max(2, config.initial_size // 2),
            rng=predictor_rng,
            training_mode=config.training_mode,
        )
        sequences = [
            warmup.sequence(i)
            for i in range(warmup.n_samples)
            if warmup.sequence_length(i) >= 2
        ]
        too_short = warmup.n_samples - len(sequences)
        if len(sequences) > config.max_predictor_sequences:
            keep = predictor_rng.choice(
                len(sequences), size=config.max_predictor_sequences, replace=False
            )
            sequences = [sequences[i] for i in keep]
        if sequences:
            predictor.fit_from_history(sequences)
            skipped = too_short + predictor.last_skipped_count
            if skipped:
                logger.info(
                    "LHS predictor fit on %d sequences; %d skipped as shorter "
                    "than 2 recorded scores",
                    len(sequences) - predictor.last_skipped_count,
                    skipped,
                )
        else:
            logger.warning(
                "LHS predictor disabled: all %d warmup sequences shorter than "
                "2 recorded scores; falling back to persistence feature",
                too_short,
            )
            predictor = None

    extractor = RankingFeatureExtractor(
        window=config.window, predictor=predictor, **config.feature_flags
    )

    # Phase 2: Algorithm 1 collection.
    eval_indices = None
    if config.eval_size is not None and config.eval_size < len(test_dataset):
        eval_indices = collect_rng.choice(
            len(test_dataset), size=config.eval_size, replace=False
        )
    history = HistoryStore(len(train_dataset), strategy_name=base.name)
    pool = Pool(len(train_dataset), initial_labeled=collect_rng.choice(
        len(train_dataset),
        size=min(config.initial_size, len(train_dataset) - config.rounds - 1),
        replace=False,
    ))
    feature_rows: list[np.ndarray] = []
    relevance: list[np.ndarray] = []
    query_ids: list[np.ndarray] = []

    previous = None
    for round_index in range(1, config.rounds + 1):
        if pool.num_unlabeled < config.candidates_per_round:
            break
        model = _fit_round_model(
            model_prototype,
            train_dataset.subset(pool.labeled_indices),
            previous,
            config.training_mode,
        )
        previous = model
        baseline = _evaluate(model, test_dataset, eval_indices)
        context = SelectionContext(
            dataset=train_dataset,
            unlabeled=pool.unlabeled_indices,
            labeled=pool.labeled_indices,
            history=history,
            round_index=round_index,
            rng=collect_rng,
            training_mode=config.training_mode,
        )
        base_current = np.asarray(base.scores(model, context), dtype=np.float64)
        history.append(round_index, context.unlabeled, base_current)

        per_strategy = max(2, config.candidates_per_round // len(candidate_strategies))
        candidate_positions: set[int] = set()
        for strategy in candidate_strategies:
            if strategy is base:
                strategy_scores = base_current
            else:
                strategy_scores = np.asarray(
                    strategy.scores(model, context), dtype=np.float64
                )
            candidate_positions.update(
                top_k_indices(strategy_scores, per_strategy).tolist()
            )
        positions = np.asarray(sorted(candidate_positions), dtype=np.int64)

        deltas = np.empty(len(positions))
        for row, position in enumerate(positions):
            candidate_index = int(context.unlabeled[position])
            augmented = np.append(pool.labeled_indices, candidate_index)
            # Warm mode resumes each Eval(M') fit from this round's model
            # M — the labeled set differs by a single sample, so a short
            # warm fit suffices to measure the candidate's delta.
            candidate_model = _fit_round_model(
                model_prototype,
                train_dataset.subset(augmented),
                model,
                config.training_mode,
            )
            deltas[row] = _evaluate(candidate_model, test_dataset, eval_indices) - baseline

        features = extractor.extract(model, context, positions)
        feature_rows.append(features)
        relevance.append(_delta_levels(deltas, config.levels))
        query_ids.append(np.full(len(positions), round_index))

        best = positions[top_k_indices(deltas, config.add_per_round)]
        pool.label(context.unlabeled[best])

    if not feature_rows:
        raise ConfigurationError(
            "Algorithm 1 collected no training data; increase dataset size "
            "or lower candidates_per_round"
        )
    data = RankingDataset(
        np.vstack(feature_rows),
        np.concatenate(relevance),
        np.concatenate(query_ids),
    )
    ranker = config.lambdamart or LambdaMART(n_estimators=50, max_depth=3)
    ranker.fit(data)
    return LHSRanker(
        model=ranker,
        extractor=extractor,
        base_name=base.name,
        training_rows=len(data.features),
    )
