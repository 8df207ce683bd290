"""The re-entrant active-learning session engine.

:class:`SessionEngine` is the paper's pool-based AL loop (Figure 1)
decomposed into an explicit state machine::

    PROPOSE -> AWAIT_LABELS -> COMMIT -> TRAIN -> EVALUATE -> PROPOSE -> ...
    (bootstrap: the random initial batch)            `-> FINISHED

A fresh session starts in ``PROPOSE`` with the *bootstrap* round: the
random initial batch is proposed for annotation exactly like any later
batch, so a human annotator labels it too (the closed
:class:`~repro.core.loop.ActiveLearningLoop` answers it from the oracle
labels instead).  After the bootstrap commit every round runs
``TRAIN -> EVALUATE -> PROPOSE -> AWAIT_LABELS -> COMMIT``; the final
round stops after ``EVALUATE`` with the evaluation-only record, exactly
as the monolithic loop did.

The public driving surface is :meth:`step` (execute one phase),
:meth:`propose` (advance until a batch awaits labels, return it),
:meth:`ingest_labels` (answer the pending batch, optionally writing
externally supplied labels into the training dataset), and
:meth:`result` (the finished :class:`ALResult`).  Lifecycle observers
(:class:`~repro.core.events.SessionObserver`) hear about every phase.

:meth:`snapshot` serialises the *complete* mid-run state — pool, history
store, RNG bit-generator state, model specs (with serialized parameter
state) for the current model and the model-history window, records,
selection order, pending proposal, and externally ingested labels — as a
JSON-compatible dict, and :meth:`restore` resumes from it **between any
two phases**, including between ``propose`` and ``ingest``.  A resumed
session is byte-identical to an uninterrupted one: the RNG stream
continues exactly where it stopped, and fitted models are rebuilt from
their serialized ``get_params`` state (JSON float round trips are exact,
so this is O(params) and bit-for-bit), falling back to refitting the
recorded (seed, labeled-set) pair for models without parameter state —
model training in this package is deterministic given those.

``training_mode="warm"`` turns on the opt-in fast path: each round's
model is fitted with ``init_from=<previous round's model>`` (fewer
epochs, parameters carried forward) instead of from scratch.  The
per-round seed draw order is unchanged, so cold mode stays byte-identical
to historical behaviour and a warm run is deterministic given the run
seed.  Warm provenance is recorded in every model spec, and snapshots in
warm mode always carry serialized parameters (a cold refit could not
reproduce a warm-started model).

The per-round :class:`~repro.core.prediction_cache.PredictionCache` is
*not* serialised: it only memoises deterministic forward passes, so a
restored session recomputes them with identical values.  The snapshot
records the round the cache belonged to for diagnostics.
"""

from __future__ import annotations

import enum
import inspect
import time
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..data.datasets import SequenceDataset, TextDataset
from ..eval.curves import LearningCurve
from ..eval.metrics import evaluate_model
from ..exceptions import ConfigurationError, IngestError, SessionError
from ..formats import SNAPSHOT_FORMAT, SNAPSHOT_VERSION
from ..ioutil import validate_envelope
from ..models.base import supports_param_state, supports_warm_start
from ..rng import ensure_rng, rng_from_state, rng_state
from .events import emit
from .history import HistoryStore
from .pool import Pool
from .prediction_cache import PredictionCache
from .strategies.base import (
    QueryStrategy,
    SelectionContext,
    strategy_capabilities,
)

# SNAPSHOT_FORMAT / SNAPSHOT_VERSION are defined in :mod:`repro.formats`
# (the single source of truth for schema versions) and re-exported here
# for the module that owns the reader.  Version history:
# version 2 embedded the resolved component specs: the snapshot config
# carries the model-prototype and strategy specs, and each per-round
# refit record carries the fitted model's full spec — so a snapshot
# alone states exactly which components produced it;
# version 3 adds the ``training_mode`` (cold|warm) to the config and
# serialized parameter state (``get_params``) plus warm provenance to
# every model spec, so restore is O(params) and warm runs resume
# deterministically.

#: Legal values of the ``training_mode`` knob.
TRAINING_MODES = ("cold", "warm")


def _try_model_spec(model) -> "dict | None":
    """``spec_of`` the model as a JSON dict, or ``None`` if unregistered.

    Imported lazily: :mod:`repro.specs` sits above the core layer.
    """
    from ..specs.models import MODEL_REGISTRY

    if model is None or not MODEL_REGISTRY.can_describe(model):
        return None
    return MODEL_REGISTRY.spec_of(model).to_dict()


def _try_strategy_spec(strategy) -> "dict | None":
    """``spec_of`` the strategy as a JSON dict, or ``None`` if it has none."""
    from ..exceptions import SpecError
    from ..specs.strategies import STRATEGY_REGISTRY

    try:
        return STRATEGY_REGISTRY.spec_of(strategy).to_dict()
    except SpecError:
        # Unregistered class, or an LHS whose ranker has no file ref.
        return None


class SessionState(str, enum.Enum):
    """Lifecycle phases of a :class:`SessionEngine`.

    The value of each member is its stable serialisation name.
    """

    TRAIN = "train"
    EVALUATE = "evaluate"
    PROPOSE = "propose"
    AWAIT_LABELS = "await_labels"
    COMMIT = "commit"
    FINISHED = "finished"


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one active-learning round.

    Attributes
    ----------
    round_index:
        1-based round number (0 = the random initial batch).
    labeled_count:
        Labeled-pool size the model was trained on this round.
    metric:
        Test metric of that model.
    selected:
        Dataset indices chosen for annotation this round (empty for the
        final evaluation-only record).
    selected_scores:
        Base-strategy evaluation scores of the selected samples, read
        back from the history store (NaN for strategies that record no
        history).
    timings:
        Per-phase wall-times (seconds) of the work that produced this
        record: ``train`` / ``evaluate`` / ``propose`` plus ``ingest``
        (label ingestion and commit of the *previous* batch; the
        bootstrap batch lands on round 0).  ``None`` for records rebuilt
        from a snapshot — timings are diagnostics and are deliberately
        not serialised, so checkpoints stay byte-comparable across
        machines.
    """

    round_index: int
    labeled_count: int
    metric: float
    selected: np.ndarray
    selected_scores: np.ndarray
    timings: "dict[str, float] | None" = None


@dataclass
class ALResult:
    """Outcome of an active-learning run."""

    strategy_name: str
    records: list[RoundRecord]
    history: HistoryStore
    final_model: object = None
    #: Dataset indices in selection order, round by round.
    selection_order: list[np.ndarray] = field(default_factory=list)

    def curve(self, label: str = "") -> LearningCurve:
        """Learning curve (labeled count -> metric) of the run."""
        counts = np.array([r.labeled_count for r in self.records], dtype=np.int64)
        values = np.array([r.metric for r in self.records], dtype=np.float64)
        return LearningCurve(counts, values, label=label or self.strategy_name)


def record_to_dict(record: RoundRecord) -> dict:
    """Serialise one :class:`RoundRecord` as JSON-compatible data.

    ``timings`` is deliberately excluded: wall-times vary run to run,
    and checkpoints/snapshots must stay byte-identical for the resume
    and distributed-equivalence checks.
    """
    return {
        "round_index": record.round_index,
        "labeled_count": record.labeled_count,
        "metric": record.metric,
        "selected": record.selected.tolist(),
        "selected_scores": record.selected_scores.tolist(),
    }


def record_from_dict(payload: dict) -> RoundRecord:
    """Rebuild a :class:`RoundRecord` written by :func:`record_to_dict`."""
    return RoundRecord(
        round_index=int(payload["round_index"]),
        labeled_count=int(payload["labeled_count"]),
        metric=float(payload["metric"]),
        selected=np.asarray(payload["selected"], dtype=np.int64),
        selected_scores=np.asarray(payload["selected_scores"], dtype=np.float64),
    )


def result_to_dict(result: ALResult) -> dict:
    """Serialise an :class:`ALResult` (``final_model`` is dropped)."""
    return {
        "strategy_name": result.strategy_name,
        "records": [record_to_dict(record) for record in result.records],
        "selection_order": [selected.tolist() for selected in result.selection_order],
        "history": result.history.to_dict(),
    }


def result_from_dict(payload: dict) -> ALResult:
    """Rebuild an :class:`ALResult` written by :func:`result_to_dict`.

    Floats round-trip exactly through JSON (``repr`` serialisation), so
    curves and records compare byte-identical to the originals.
    """
    return ALResult(
        strategy_name=str(payload["strategy_name"]),
        records=[record_from_dict(record) for record in payload["records"]],
        history=HistoryStore.from_dict(payload["history"]),
        final_model=None,
        selection_order=[
            np.asarray(selected, dtype=np.int64)
            for selected in payload["selection_order"]
        ],
    )


def validated_model_history(strategy: QueryStrategy) -> int:
    """``strategy.requires_model_history`` as a checked non-negative int.

    The value doubles as the model-history slice bound
    (``del model_history[:-keep]``), so a strategy accidentally returning
    ``True`` would silently keep exactly one model; reject bools and
    anything else that is not a non-negative integer instead.
    """
    keep = strategy.requires_model_history
    if isinstance(keep, bool) or not isinstance(keep, (int, np.integer)):
        raise ConfigurationError(
            f"{type(strategy).__name__}.requires_model_history must be a "
            f"non-negative int (number of past models to retain), got {keep!r}"
        )
    if keep < 0:
        raise ConfigurationError(
            f"{type(strategy).__name__}.requires_model_history must be >= 0, "
            f"got {keep}"
        )
    return int(keep)


def metric_accepts_cache(metric: Callable) -> bool:
    """Whether ``metric``'s signature has an explicit ``cache`` parameter.

    The engine passes its per-round :class:`PredictionCache` to any
    metric that declares the keyword — including wrapped or partial
    variants of :func:`~repro.eval.metrics.evaluate_model`, which an
    identity check (``metric is evaluate_model``) silently misses.  A
    bare ``**kwargs`` does not count: it gives no evidence the metric
    understands the keyword.
    """
    try:
        signature = inspect.signature(metric)
    except (TypeError, ValueError):
        return False
    parameter = signature.parameters.get("cache")
    return parameter is not None and parameter.kind in (
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
        inspect.Parameter.KEYWORD_ONLY,
    )


class SessionEngine:
    """Explicit state machine over one pool-based active-learning run.

    Constructor parameters match
    :class:`~repro.core.loop.ActiveLearningLoop` (which is now a thin
    auto-oracle driver over this class); ``observers`` is a sequence of
    :class:`~repro.core.events.SessionObserver` instances notified of
    every lifecycle event.

    The engine owns the run's mutable state (pool, history, RNG, model
    window, records); the model prototype, strategy, datasets, and
    metric are *components* — they are not serialised by
    :meth:`snapshot` and must be supplied again, identically configured,
    to :meth:`restore`.
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
        track_flips: bool = False,
        observers: Sequence = (),
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        if training_mode not in TRAINING_MODES:
            raise ConfigurationError(
                f"training_mode must be one of {TRAINING_MODES}, got {training_mode!r}"
            )
        initial = batch_size if initial_size is None else initial_size
        if initial < 1:
            raise ConfigurationError(f"initial_size must be >= 1, got {initial}")
        needed = initial + rounds * batch_size
        if needed > len(train_dataset):
            raise ConfigurationError(
                f"run needs {needed} samples but the pool has {len(train_dataset)}"
            )
        window = getattr(strategy, "window", None)
        if history_limit is not None and window is not None and history_limit < window:
            raise ConfigurationError(
                f"history_limit {history_limit} is below the strategy window "
                f"{window}; windowed statistics would be truncated"
            )
        self.model_prototype = model_prototype
        self.strategy = strategy
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.batch_size = batch_size
        self.rounds = rounds
        self.initial_size = initial
        self.metric = metric or evaluate_model
        self.reseed_model = reseed_model
        self.history_limit = history_limit
        self.training_mode = training_mode
        #: Record each round's predicted labels for the unlabeled pool
        #: (contradiction-rate metric).  Prediction consumes no RNG, so
        #: enabling this never changes curves or selections.
        self.track_flips = bool(track_flips)
        self.observers = list(observers)
        self._metric_wants_cache = metric_accepts_cache(self.metric)
        self._keep_models = validated_model_history(strategy)
        self._rng = ensure_rng(seed_or_rng)

        n = len(train_dataset)
        self._state = SessionState.PROPOSE
        self._round_index = 0
        self._bootstrap_done = False
        self._pool = Pool(n)
        self._history = HistoryStore(n, strategy_name=strategy.name)
        self._cache = PredictionCache(keep_rounds=max(1, self._keep_models))
        self._records: list[RoundRecord] = []
        self._selection_order: list[np.ndarray] = []
        self._pending: "np.ndarray | None" = None
        self._metric_value: "float | None" = None
        self._model = None
        #: (seed, labeled indices) the current model was fitted from —
        #: enough to reproduce it bit for bit after a restore.
        self._model_spec: "dict | None" = None
        self._model_history: list = []
        self._model_history_specs: list[dict] = []
        #: Externally supplied labels written into ``train_dataset``,
        #: keyed by dataset index; replayed on restore so a rebuilt
        #: dataset carries the annotator's answers.
        self._ingested: dict[int, object] = {}
        #: Wall-times accumulated since the last record was appended;
        #: attached to the next record and reset.
        self._pending_timings: dict[str, float] = {}

    # -- introspection -----------------------------------------------------

    @property
    def state(self) -> SessionState:
        """The phase the engine will execute next."""
        return self._state

    @property
    def round_index(self) -> int:
        """The current annotation round (0 until the first commit)."""
        return self._round_index

    @property
    def pending(self) -> "np.ndarray | None":
        """Dataset indices awaiting labels, or ``None``."""
        return None if self._pending is None else self._pending.copy()

    @property
    def records(self) -> list[RoundRecord]:
        """Round records so far (shared list; do not mutate)."""
        return self._records

    @property
    def history(self) -> HistoryStore:
        """The run's history store."""
        return self._history

    @property
    def selection_order(self) -> "list[np.ndarray]":
        """Per-round committed batch index arrays, in commit order."""
        return list(self._selection_order)

    @property
    def pool(self) -> Pool:
        """The run's labeled/unlabeled pool."""
        return self._pool

    # -- driving -----------------------------------------------------------

    def step(self) -> SessionState:
        """Execute the current phase and return the new state.

        Raises
        ------
        SessionError
            In ``AWAIT_LABELS`` (call :meth:`ingest_labels`) and
            ``FINISHED`` (call :meth:`result`) — the engine cannot make
            progress on its own in either.
        """
        if self._state is SessionState.AWAIT_LABELS:
            raise SessionError(
                f"session is awaiting labels for {len(self._pending)} samples; "
                "call ingest_labels(indices, labels=None)"
            )
        if self._state is SessionState.FINISHED:
            raise SessionError("session is finished; call result()")
        phase = {
            SessionState.TRAIN: self._step_train,
            SessionState.EVALUATE: self._step_evaluate,
            SessionState.PROPOSE: self._step_propose,
            SessionState.COMMIT: self._step_commit,
        }[self._state]
        phase()
        return self._state

    def propose(self) -> "np.ndarray | None":
        """Advance until a batch awaits labels; return its indices.

        Returns ``None`` once the session is finished.  Calling it while
        already in ``AWAIT_LABELS`` just returns the pending batch again.
        """
        while self._state not in (SessionState.AWAIT_LABELS, SessionState.FINISHED):
            self.step()
        if self._state is SessionState.FINISHED:
            return None
        return self._pending.copy()

    def ingest_labels(
        self,
        indices: "Sequence[int] | np.ndarray",
        labels: "Sequence | None" = None,
    ) -> None:
        """Answer the pending proposal with labels for its samples.

        ``indices`` must be exactly the proposed batch (any order).
        With ``labels=None`` the dataset's existing labels are used (the
        simulation/oracle mode of the paper's experiments); otherwise
        ``labels[i]`` is written into the training dataset as the label
        of ``indices[i]`` — a class id for text classification, a tag-id
        sequence for sequence labeling — before the batch is committed.

        The engine moves to ``COMMIT``; the next :meth:`step` or
        :meth:`propose` performs the commit, so a :meth:`snapshot` taken
        right after this call still carries the uncommitted batch.

        Raises
        ------
        SessionError
            If no proposal is pending.
        IngestError
            On any validation failure: index never proposed or already
            labeled, duplicated indices, label/indices length mismatch,
            or label values invalid for the dataset.  The session state
            is unchanged — nothing is partially ingested.
        """
        if self._state is not SessionState.AWAIT_LABELS:
            raise SessionError(
                f"no proposal is awaiting labels (state={self._state.value!r})"
            )
        started = time.perf_counter()
        index_array = np.asarray(list(np.atleast_1d(indices)), dtype=np.int64)
        pending = self._pending
        if index_array.ndim != 1 or len(index_array) != len(pending):
            raise IngestError(
                f"proposal has {len(pending)} samples but {index_array.size} "
                "indices were ingested"
            )
        # Validate the *caller's* deviation from the proposal only; a
        # defective proposal (a strategy bug) echoed straight back is let
        # through so the commit surfaces it as PoolError, exactly as the
        # monolithic loop did.
        if not np.array_equal(np.sort(index_array), np.sort(pending)):
            foreign = np.unique(index_array[~np.isin(index_array, pending)])
            if foreign.size:
                already = foreign[np.isin(foreign, self._pool.labeled_indices)]
                if already.size:
                    raise IngestError(
                        "indices already labeled in an earlier round: "
                        f"{already[:5].tolist()}"
                    )
                raise IngestError(
                    f"indices were never proposed: {foreign[:5].tolist()}"
                )
            raise IngestError("duplicate indices in one ingest call")
        if labels is not None:
            if len(labels) != len(index_array):
                raise IngestError(
                    f"{len(index_array)} indices but {len(labels)} labels"
                )
            validated = [
                self._validated_label(int(index), label)
                for index, label in zip(index_array, labels)
            ]
            # All-or-nothing: write only after every label validated.
            for index, label in zip(index_array, validated):
                self._write_label(int(index), label)
        self._note_phase("ingest", started)
        self._state = SessionState.COMMIT

    def result(self) -> ALResult:
        """The finished run's audit trail.

        Raises
        ------
        SessionError
            If the session has not reached ``FINISHED``.
        """
        if self._state is not SessionState.FINISHED:
            raise SessionError(
                f"session is not finished (state={self._state.value!r})"
            )
        return ALResult(
            strategy_name=self.strategy.name,
            records=self._records,
            history=self._history,
            final_model=self._model,
            selection_order=self._selection_order,
        )

    # -- phases ------------------------------------------------------------

    def _note_phase(self, phase: str, started: float) -> None:
        """Accumulate wall-time of ``phase`` since ``started`` (perf_counter)."""
        elapsed = time.perf_counter() - started
        self._pending_timings[phase] = self._pending_timings.get(phase, 0.0) + elapsed

    def _take_timings(self) -> dict[str, float]:
        """The accumulated phase timings, resetting the accumulator."""
        timings = self._pending_timings
        self._pending_timings = {}
        return timings

    def _step_train(self) -> None:
        started = time.perf_counter()
        emit(
            self.observers,
            "round_started",
            self._round_index,
            self._pool.num_labeled,
        )
        # Age out stale forward passes: entries from rounds beyond the
        # cache's keep window would only pin dead models and recycle
        # their ids.  With the default window of one round this is the
        # historical clear-per-round behaviour; committee strategies
        # keep as many rounds as they keep models.
        self._cache.advance_round(self._round_index)
        model = self.model_prototype.clone()
        seed = None
        if self.reseed_model and hasattr(model, "seed"):
            seed = int(self._rng.integers(2**31))
            model.seed = seed
        labeled = self._pool.labeled_indices
        # Warm mode resumes from the previous round's model when the
        # model family supports it.  Parameter state is also required so
        # snapshots stay deterministic: a warm-started model cannot be
        # reproduced by a cold refit, only by its serialized parameters.
        warm_source = (
            self._model
            if self.training_mode == "warm"
            and self._model is not None
            and supports_warm_start(model)
            and supports_param_state(model)
            else None
        )
        if warm_source is not None:
            model.fit(self.train_dataset.subset(labeled), init_from=warm_source)
        else:
            model.fit(self.train_dataset.subset(labeled))
        self._model = model
        # A *real* model spec (kind + hyperparams, with the per-round
        # seed baked in) plus the labeled set and warm provenance:
        # everything needed to reproduce this fitted model.  The
        # serialized parameter state is injected lazily at snapshot()
        # time so runs that never snapshot pay nothing.
        self._model_spec = {
            "seed": seed,
            "labeled": labeled.tolist(),
            "model": _try_model_spec(model),
            "training_mode": self.training_mode,
            "warm": warm_source is not None,
        }
        self._note_phase("train", started)
        self._state = SessionState.EVALUATE

    def _step_evaluate(self) -> None:
        started = time.perf_counter()
        if self._metric_wants_cache:
            metric_value = self.metric(
                self._model, self.test_dataset, cache=self._cache
            )
        else:
            metric_value = self.metric(self._model, self.test_dataset)
        self._metric_value = metric_value
        if self._keep_models:
            self._model_history.append(self._model)
            del self._model_history[: -self._keep_models]
            self._model_history_specs.append(self._model_spec)
            del self._model_history_specs[: -self._keep_models]
        self._note_phase("evaluate", started)
        emit(
            self.observers,
            "model_trained",
            self._round_index,
            self._model,
            metric_value,
        )
        if (
            self._round_index == self.rounds
            or self._pool.num_unlabeled < self.batch_size
        ):
            self._records.append(
                RoundRecord(
                    round_index=self._round_index,
                    labeled_count=self._pool.num_labeled,
                    metric=metric_value,
                    selected=np.empty(0, dtype=np.int64),
                    selected_scores=np.empty(0),
                    timings=self._take_timings(),
                )
            )
            self._state = SessionState.FINISHED
            emit(self.observers, "session_finished", self.result())
        else:
            self._state = SessionState.PROPOSE

    def _step_propose(self) -> None:
        started = time.perf_counter()
        if not self._bootstrap_done:
            initial = self._rng.choice(
                len(self.train_dataset), size=self.initial_size, replace=False
            )
            self._pending = np.asarray(initial, dtype=np.int64)
            self._note_phase("propose", started)
            emit(self.observers, "batch_selected", self._round_index, self._pending)
            self._state = SessionState.AWAIT_LABELS
            return
        context = SelectionContext(
            dataset=self.train_dataset,
            unlabeled=self._pool.unlabeled_indices,
            labeled=self._pool.labeled_indices,
            history=self._history,
            round_index=self._round_index + 1,
            rng=self._rng,
            model_history=list(self._model_history),
            cache=self._cache,
            training_mode=self.training_mode,
        )
        selected = self.strategy.select(self._model, context, self.batch_size)
        score_vector = self._history.current_scores(selected)
        if self.track_flips and not any(
            recorded == context.round_index
            for recorded, _, _ in self._history.label_rounds()
        ):
            # Forward passes are cached and RNG-free, so this adds no
            # nondeterminism; the guard keeps a restored mid-propose
            # session from double-recording its round.
            self._history.append_labels(
                context.round_index,
                context.unlabeled,
                self._predicted_labels(context),
            )
        self._note_phase("propose", started)
        self._records.append(
            RoundRecord(
                round_index=self._round_index,
                labeled_count=self._pool.num_labeled,
                metric=self._metric_value,
                selected=selected,
                selected_scores=score_vector,
                timings=self._take_timings(),
            )
        )
        self._selection_order.append(selected)
        self._pending = selected
        emit(self.observers, "scores_computed", self._round_index, score_vector)
        emit(self.observers, "batch_selected", self._round_index, selected)
        self._state = SessionState.AWAIT_LABELS

    def _predicted_labels(self, context: SelectionContext) -> np.ndarray:
        """Current model's predicted label per unlabeled candidate.

        Classifiers yield class ids; sequence labelers yield a stable
        CRC of the predicted tag sequence (a "label" whose equality
        across rounds means "same tagging"), so the contradiction-rate
        metric covers both task families with one int64 record.
        """
        candidates = context.candidates
        if isinstance(self.train_dataset, TextDataset):
            return np.asarray(
                self._cache.predict(self._model, candidates), dtype=np.int64
            )
        tags = self._cache.predict_tags(self._model, candidates)
        return np.array(
            [
                zlib.crc32(np.ascontiguousarray(seq, dtype=np.int64).tobytes())
                for seq in tags
            ],
            dtype=np.int64,
        )

    def _step_commit(self) -> None:
        started = time.perf_counter()
        self._pool.label(self._pending)
        self._note_phase("ingest", started)
        if not self._bootstrap_done:
            self._bootstrap_done = True
            emit(self.observers, "round_committed", self._round_index, None)
        else:
            if self.history_limit is not None:
                self._history.prune(self.history_limit)
            emit(
                self.observers,
                "round_committed",
                self._round_index,
                self._records[-1],
            )
            self._round_index += 1
        self._pending = None
        self._state = SessionState.TRAIN

    # -- external labels ---------------------------------------------------

    def _validated_label(self, index: int, label):
        """Check one external label against the dataset; return it normalised.

        Raises :class:`IngestError` on invalid values so a bad batch is
        rejected before anything is written.
        """
        dataset = self.train_dataset
        if isinstance(dataset, TextDataset):
            if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
                raise IngestError(
                    f"sample {index}: label must be a class id, got {label!r}"
                )
            if not 0 <= label < dataset.num_classes:
                raise IngestError(
                    f"sample {index}: class id {label} out of range "
                    f"[0, {dataset.num_classes})"
                )
            return int(label)
        if isinstance(dataset, SequenceDataset):
            tags = np.asarray(label, dtype=np.int64)
            expected = len(dataset.sentences[index])
            if tags.ndim != 1 or len(tags) != expected:
                raise IngestError(
                    f"sample {index}: expected {expected} tags, got "
                    f"{tags.size if tags.ndim == 1 else label!r}"
                )
            if tags.size and not (0 <= tags.min() and tags.max() < dataset.num_tags):
                raise IngestError(
                    f"sample {index}: tag id out of range [0, {dataset.num_tags})"
                )
            return tags
        raise IngestError(
            f"cannot ingest labels into a {type(dataset).__name__}"
        )

    def _write_label(self, index: int, label) -> None:
        """Write a validated label into the training dataset."""
        dataset = self.train_dataset
        if isinstance(dataset, TextDataset):
            dataset.labels[index] = label
            self._ingested[index] = int(label)
        else:
            dataset.tag_sequences[index] = label
            self._ingested[index] = np.asarray(label).tolist()

    # -- snapshots ---------------------------------------------------------

    def _spec_with_state(self, spec: "dict | None", model) -> "dict | None":
        """A snapshot payload of ``spec`` carrying serialized parameters.

        Parameter state is serialized lazily — here, not at train time —
        so runs that never snapshot pay nothing.  Specs restored from an
        older snapshot already carry ``params`` and pass through; models
        without parameter state keep the refit-based spec.
        """
        if spec is None:
            return None
        if "params" in spec:
            return spec
        payload = dict(spec)
        if model is not None and supports_param_state(model):
            payload["params"] = model.get_params()
        return payload

    def snapshot(self) -> dict:
        """The complete mid-run state as a JSON-compatible dict.

        Legal in every state; :meth:`restore` resumes from it with
        byte-identical continuation.  Components (model prototype,
        strategy, datasets, metric) are fingerprinted, not serialised.
        """
        history_payloads = [
            self._spec_with_state(spec, model)
            for spec, model in zip(self._model_history_specs, self._model_history)
        ]
        if (
            self._model_history_specs
            and self._model_spec is self._model_history_specs[-1]
        ):
            # The current model is the last history entry; reuse its
            # payload instead of serializing the parameters twice.
            model_payload = history_payloads[-1]
        else:
            model_payload = self._spec_with_state(self._model_spec, self._model)
        config_extra = {}
        if self.track_flips:
            # Key present only when tracking: untracked snapshots keep
            # the exact byte shape of snapshot version 3 as shipped.
            config_extra["track_flips"] = True
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "config": {
                "strategy": self.strategy.name,
                "strategy_spec": _try_strategy_spec(self.strategy),
                "model": _try_model_spec(self.model_prototype),
                "n_train": len(self.train_dataset),
                "n_test": len(self.test_dataset),
                "batch_size": self.batch_size,
                "rounds": self.rounds,
                "initial_size": self.initial_size,
                "reseed_model": self.reseed_model,
                "history_limit": self.history_limit,
                "training_mode": self.training_mode,
                **config_extra,
                "capabilities": strategy_capabilities(self.strategy),
                "default_metric": self.metric is evaluate_model,
            },
            "state": self._state.value,
            "round_index": self._round_index,
            "bootstrap_done": self._bootstrap_done,
            "rng": rng_state(self._rng),
            "pool": self._pool.to_dict(),
            "history": self._history.to_dict(),
            "records": [record_to_dict(record) for record in self._records],
            "selection_order": [
                selected.tolist() for selected in self._selection_order
            ],
            "pending": None if self._pending is None else self._pending.tolist(),
            "metric_value": self._metric_value,
            "model": model_payload,
            "model_history": history_payloads,
            "ingested": [[index, label] for index, label in self._ingested.items()],
            # Informational: the cache itself is rebuilt, not serialised.
            "cache": {"round": self._round_index, "entries": len(self._cache)},
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        model_prototype,
        strategy: QueryStrategy,
        train_dataset: "TextDataset | SequenceDataset",
        test_dataset: "TextDataset | SequenceDataset",
        metric: "Callable[[object, object], float] | None" = None,
        observers: Sequence = (),
    ) -> "SessionEngine":
        """Resume a session from a :meth:`snapshot` payload.

        The components must be configured identically to the originals
        (the snapshot fingerprints strategy name, dataset sizes, and
        loop shape and rejects mismatches); fitted models are rebuilt
        from their serialized parameter state (O(params), bit-for-bit),
        falling back to refitting the recorded (seed, labeled-set) spec
        for models without ``set_params``, and externally ingested
        labels are replayed into ``train_dataset``.  The recorded
        ``training_mode`` is resumed as-is.

        Raises
        ------
        SessionError
            If the payload is not a session snapshot, is from an
            unsupported version, or does not match the components.
        """
        validate_envelope(
            snapshot,
            SNAPSHOT_FORMAT,
            SNAPSHOT_VERSION,
            SessionError,
            source="session snapshot",
        )
        config = snapshot["config"]
        mismatches = []
        if strategy.name != config["strategy"]:
            mismatches.append(
                f"strategy {strategy.name!r} != {config['strategy']!r}"
            )
        # Structured spec comparison: only when both sides are
        # spec-describable — factory-built custom components keep the
        # name/size fingerprint alone.
        strategy_spec = _try_strategy_spec(strategy)
        recorded_strategy_spec = config.get("strategy_spec")
        if (
            strategy_spec is not None
            and recorded_strategy_spec is not None
            and strategy_spec != recorded_strategy_spec
        ):
            mismatches.append(
                f"strategy spec {strategy_spec!r} != {recorded_strategy_spec!r}"
            )
        model_spec = _try_model_spec(model_prototype)
        recorded_model_spec = config.get("model")
        if (
            model_spec is not None
            and recorded_model_spec is not None
            and model_spec != recorded_model_spec
        ):
            mismatches.append(
                f"model spec {model_spec!r} != {recorded_model_spec!r}"
            )
        if len(train_dataset) != config["n_train"]:
            mismatches.append(
                f"train size {len(train_dataset)} != {config['n_train']}"
            )
        if len(test_dataset) != config["n_test"]:
            mismatches.append(f"test size {len(test_dataset)} != {config['n_test']}")
        if (metric is None) != bool(config["default_metric"]):
            mismatches.append("default/custom metric mismatch")
        if mismatches:
            raise SessionError(
                "snapshot does not match the supplied components: "
                + "; ".join(mismatches)
            )
        engine = cls(
            model_prototype,
            strategy,
            train_dataset,
            test_dataset,
            batch_size=int(config["batch_size"]),
            rounds=int(config["rounds"]),
            initial_size=int(config["initial_size"]),
            metric=metric,
            seed_or_rng=rng_from_state(snapshot["rng"]),
            reseed_model=bool(config["reseed_model"]),
            history_limit=config["history_limit"],
            training_mode=str(config.get("training_mode", "cold")),
            track_flips=bool(config.get("track_flips", False)),
            observers=observers,
        )
        engine._state = SessionState(snapshot["state"])
        engine._round_index = int(snapshot["round_index"])
        engine._bootstrap_done = bool(snapshot["bootstrap_done"])
        engine._pool = Pool.from_dict(snapshot["pool"])
        engine._history = HistoryStore.from_dict(snapshot["history"])
        engine._records = [record_from_dict(r) for r in snapshot["records"]]
        engine._selection_order = [
            np.asarray(selected, dtype=np.int64)
            for selected in snapshot["selection_order"]
        ]
        if snapshot["pending"] is not None:
            engine._pending = np.asarray(snapshot["pending"], dtype=np.int64)
        engine._metric_value = snapshot["metric_value"]
        for index, label in snapshot["ingested"]:
            engine._write_label(
                int(index), engine._validated_label(int(index), _as_label(label))
            )
        engine._model_spec = snapshot["model"]
        engine._model_history_specs = [dict(s) for s in snapshot["model_history"]]
        engine._model_history = [
            engine._rebuild_model(spec) for spec in engine._model_history_specs
        ]
        if engine._state in (
            SessionState.EVALUATE,
            SessionState.PROPOSE,
            SessionState.FINISHED,
        ):
            # Only these phases still read the current model; elsewhere the
            # next TRAIN replaces it anyway, so skip the rebuild cost.
            if (
                engine._model_history_specs
                and engine._model_spec == engine._model_history_specs[-1]
            ):
                engine._model = engine._model_history[-1]
            elif engine._model_spec is not None:
                engine._model = engine._rebuild_model(engine._model_spec)
        elif engine.training_mode == "warm" and engine._model_spec is not None:
            # States headed back into TRAIN (train/await/commit) skip the
            # rebuild in cold mode because the next fit replaces the
            # model anyway — but a warm TRAIN needs the previous round's
            # model as init_from, and leaving it None would silently
            # degrade to a cold fit and break byte-identical resume.
            engine._model = engine._rebuild_model(engine._model_spec)
        return engine

    def _rebuild_model(self, spec: dict):
        """Reproduce a fitted model from its snapshot spec.

        Prefers the serialized parameter state (``set_params`` — exact
        float round trip, O(params)); falls back to refitting the
        recorded (seed, labeled-set) pair for models without it.
        """
        model = self.model_prototype.clone()
        if spec["seed"] is not None:
            model.seed = int(spec["seed"])
        state = spec.get("params")
        if state is not None and supports_param_state(model):
            return model.set_params(state)
        if spec.get("warm"):
            raise SessionError(
                "snapshot records a warm-started model but carries no "
                "serialized parameters the supplied prototype can restore"
            )
        return model.fit(self.train_dataset.subset(np.asarray(spec["labeled"], dtype=np.int64)))

    def __repr__(self) -> str:
        return (
            f"SessionEngine(strategy={self.strategy.name!r}, "
            f"state={self._state.value!r}, round={self._round_index})"
        )


def _as_label(label):
    """Normalise a JSON-decoded label (lists stay lists, ints stay ints)."""
    return label


def run_to_completion(engine: SessionEngine, on_round_committed=None) -> ALResult:
    """Drive ``engine`` with the dataset's own labels (the auto-oracle).

    Every pending proposal is answered with ``labels=None`` and committed
    immediately; ``on_round_committed(engine)`` is invoked after each
    commit, at the exact round boundary — the hook the runner uses to
    write round-level session snapshots.
    """
    while True:
        pending = engine.propose()
        if pending is None:
            return engine.result()
        engine.ingest_labels(pending)
        engine.step()  # commit now so snapshots land on the round boundary
        if on_round_committed is not None:
            on_round_committed(engine)
