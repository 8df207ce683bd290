"""The re-entrant active-learning session engine.

:class:`SessionEngine` is the paper's pool-based AL loop (Figure 1)
decomposed into an explicit state machine::

    PROPOSE -> AWAIT_LABELS -> COMMIT -> TRAIN -> EVALUATE -> PROPOSE -> ...
    (bootstrap: the random initial batch)            `-> FINISHED

A fresh session starts in ``PROPOSE`` with the *bootstrap* round: the
random initial batch is proposed for annotation exactly like any later
batch, so a human annotator labels it too (:func:`run_to_completion`
answers it from the dataset's own labels instead).  After the bootstrap
commit every round runs
``TRAIN -> EVALUATE -> PROPOSE -> AWAIT_LABELS -> COMMIT``; the final
round stops after ``EVALUATE`` with the evaluation-only record.

The public driving surface is :meth:`step` (execute one phase),
:meth:`propose` (advance until a batch awaits labels, return it),
:meth:`ingest_labels` (answer the pending batch, optionally writing
externally supplied labels into the training dataset), and
:meth:`result` (the finished :class:`ALResult`).  Lifecycle observers
(:class:`~repro.core.events.SessionObserver`) hear about every phase.
:func:`run_to_completion` drives an engine to the end with the
dataset's own labels (the simulation oracle of the paper's experiments);
it is the one way to run a whole session.

:meth:`snapshot` serialises the *complete* mid-run state — pool, history
store, RNG bit-generator state, model specs (with serialized parameter
state) for the current model and the model-history window, records,
selection order, pending proposal, and externally ingested labels — as a
JSON-compatible dict, and :meth:`restore` resumes from it **between any
two phases**, including between ``propose`` and ``ingest``.  A resumed
session is byte-identical to an uninterrupted one: the RNG stream
continues exactly where it stopped, and fitted models are rebuilt only
from their serialized ``get_params`` state with ``set_params`` (the
base64 float64 arrays of :func:`repro.ioutil.encode_array` round-trip
exactly, so this is O(params) and bit-for-bit).

``training_mode="warm"`` turns on the opt-in fast path: each round's
model is fitted with ``init_from=<previous round's model>`` (fewer
epochs, parameters carried forward) instead of from scratch.  The
per-round seed draw order is unchanged, so cold mode stays byte-identical
to historical behaviour and a warm run is deterministic given the run
seed.  Warm provenance is recorded in every model spec.

The per-round :class:`~repro.core.prediction_cache.PredictionCache` is
*not* serialised: it only memoises deterministic forward passes, so a
restored session recomputes them with identical values.  The snapshot
records the round the cache belonged to for diagnostics.
"""

from __future__ import annotations

import enum
import json
import time
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..data.datasets import SequenceDataset, TextDataset
from ..eval.curves import LearningCurve
from ..eval.metrics import evaluate_model
from ..exceptions import (
    ConfigurationError,
    HistoryError,
    IngestError,
    PoolError,
    SessionError,
)
from ..formats import SNAPSHOT_FORMAT, SNAPSHOT_VERSION
from ..ioutil import check_fields, encoded_shape, is_int, is_number, validate_envelope
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
# deterministically;
# version 4 writes the history as round ids plus one encoded
# ``(rounds, n_samples)`` score matrix and every parameter array through
# :func:`repro.ioutil.encode_array` (base64 float64 bytes, not nested
# lists of printed floats), and stops writing the retired config keys.
# Readers take versions 3 and 4, and either array form in each.

#: Snapshot versions :meth:`SessionEngine.restore` reads.
READABLE_SNAPSHOT_VERSIONS = (3, SNAPSHOT_VERSION)

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


def _count(value, low: int = 0) -> bool:
    return is_int(value) and value >= low


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


def _optional(test):
    return lambda value: value is None or test(value)


def _object(**fields):
    """A test for an object whose named fields pass their own tests."""
    return lambda value: isinstance(value, dict) and all(
        test(value.get(key)) for key, test in fields.items()
    )


_indices, _scores = _list_of(_count), _list_of(is_number)


def _array(value) -> bool:
    """A nested list (version 3) or an encoded float64 array (version 4)."""
    return isinstance(value, list) or encoded_shape(value) is not None


_param_state = _object(
    arrays=lambda value: isinstance(value, dict) and all(map(_array, value.values())),
    meta=lambda value: isinstance(value, dict) and all(map(is_int, value.values())),
)
_history_fields = _object(
    n_samples=lambda v: _count(v, 1),
    strategy_name=lambda v: isinstance(v, str),
    labels=_optional(_list_of(_object(round=_count, indices=_indices, labels=_indices))),
)
_history_rows = _list_of(_object(round=_count, indices=_indices, scores=_scores))


def _history(value) -> bool:
    """Version 4's round ids plus an encoded score matrix of shape
    ``[len(rounds), n_samples]``, or version 3's per-round rows."""
    if not _history_fields(value):
        return False
    rounds = value.get("rounds")
    if "scores" not in value:
        return _history_rows(rounds)
    return _indices(rounds) and encoded_shape(value["scores"]) == [
        len(rounds), value["n_samples"]
    ]


_model_spec = _object(seed=_optional(_count), params=_optional(_param_state))
_STATES = [state.value for state in SessionState]

#: Snapshot config keys of retired engine options, with the one value
#: each still holds.  Snapshot version 3 always writes them; version 4
#: does not.
RETIRED_CONFIG_KEYS = {"reseed_model": True, "history_limit": None, "default_metric": True}

#: Every snapshot field :meth:`SessionEngine.restore` reads: dotted path
#: -> (rule, test).  An absent field reads as ``None``.
SNAPSHOT_RULES = {
    "config": ("an object", _object()),
    "config.strategy": ("a string", lambda value: isinstance(value, str)),
    "config.n_train": ("an int >= 0", _count),
    "config.n_test": ("an int >= 0", _count),
    "config.batch_size": ("an int >= 1", lambda value: _count(value, 1)),
    "config.rounds": ("an int >= 1", lambda value: _count(value, 1)),
    "config.initial_size": ("an int >= 1", lambda value: _count(value, 1)),
    "config.training_mode": ("absent, 'cold' or 'warm'", _optional(TRAINING_MODES.__contains__)),
    "config.track_flips": ("absent or a bool", _optional(lambda v: isinstance(v, bool))),
    **{f"config.{key}": (f"absent or {json.dumps(kept)} (a retired option)",
                         lambda value, kept=kept: value is None or value is kept)
       for key, kept in RETIRED_CONFIG_KEYS.items()},
    "state": (f"one of {_STATES}", _STATES.__contains__),
    "round_index": ("an int >= 0", _count),
    "bootstrap_done": ("a bool", lambda value: isinstance(value, bool)),
    "rng": ("a bit-generator state", _object(bit_generator=lambda v: isinstance(v, str))),
    "pool": ("a pool", _object(n=_count, labeled=_indices)),
    "history": (
        "a history store: round ids and an encoded float64 scores matrix of "
        "shape [len(rounds), n_samples], or version 3's round rows",
        _history,
    ),
    "records": ("a list of round records", _list_of(_object(
        round_index=_count, labeled_count=_count, metric=is_number,
        selected=_indices, selected_scores=_scores,
    ))),
    "selection_order": ("a list of index lists", _list_of(_indices)),
    "pending": ("null or a list of indices", _optional(_indices)),
    "metric_value": ("null or a number", _optional(is_number)),
    "model.params": ("absent or a parameter state", _optional(_param_state)),
    "model": ("null or a model spec", _optional(_model_spec)),
    "model_history": ("a list of model specs", _list_of(_model_spec)),
    "ingested": ("a list of [index, label] pairs", _list_of(
        lambda pair: isinstance(pair, list) and len(pair) == 2 and _count(pair[0])
    )),
}


def check_snapshot(snapshot, source: str = "session snapshot") -> dict:
    """``snapshot`` if well formed; a ``SessionError`` naming the field otherwise."""
    validate_envelope(
        snapshot, SNAPSHOT_FORMAT, READABLE_SNAPSHOT_VERSIONS, SessionError, source=source
    )
    check_fields(snapshot, SNAPSHOT_RULES, SessionError, source)
    return snapshot


class SessionEngine:
    """Explicit state machine over one pool-based active-learning run.

    Each round fits a clone of ``model_prototype`` — reseeded from the
    run RNG when it has a ``seed``: the per-round training noise the
    paper's history averages out — and scores it on ``test_dataset``
    with :func:`~repro.eval.metrics.evaluate_model`.  ``initial_size``
    (default ``batch_size``) is the random first batch; ``observers``
    are :class:`~repro.core.events.SessionObserver` instances.

    The engine owns the run's mutable state (pool, history, RNG, model
    window, records); the model prototype, strategy and datasets are
    *components* — they are not serialised by :meth:`snapshot` and must
    be supplied again, identically configured, to :meth:`restore`.
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
        seed_or_rng: "int | np.random.Generator | None" = None,
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
        self.model_prototype = model_prototype
        self.strategy = strategy
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.batch_size = batch_size
        self.rounds = rounds
        self.initial_size = initial
        self.training_mode = training_mode
        #: Record each round's predicted labels for the unlabeled pool
        #: (contradiction-rate metric).  Prediction consumes no RNG, so
        #: enabling this never changes curves or selections.
        self.track_flips = bool(track_flips)
        self.observers = list(observers)
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
        #: Seed, labeled indices and warm provenance of the current
        #: model; snapshots add its parameter state.
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
            On any validation failure: an index that is not an integer,
            ``labels`` that is not a list, index never proposed or
            already labeled, duplicated indices, label/indices length
            mismatch, or label values invalid for the dataset.  The
            session state is unchanged — nothing is partially ingested.
        """
        if self._state is not SessionState.AWAIT_LABELS:
            raise SessionError(
                f"no proposal is awaiting labels (state={self._state.value!r})"
            )
        started = time.perf_counter()
        items = indices.tolist() if isinstance(indices, np.ndarray) else indices
        if not isinstance(items, (list, tuple)):
            raise IngestError(f"indices must be a list, got {indices!r}")
        for index in items:
            if not is_int(index):
                raise IngestError(f"indices must be integers, got {index!r}")
        if labels is not None and not isinstance(labels, (list, tuple, np.ndarray)):
            raise IngestError(f"labels must be a list, got {labels!r}")
        pending = self._pending
        try:
            index_array = np.asarray(items, dtype=np.int64)
        except OverflowError:
            raise IngestError(f"indices were never proposed: {items[:5]}") from None
        if len(index_array) != len(pending):
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
        if hasattr(model, "seed"):
            seed = int(self._rng.integers(2**31))
            model.seed = seed
        labeled = self._pool.labeled_indices
        # Warm mode resumes from the previous round's model (none before
        # the first fit).
        warm_source = self._model if self.training_mode == "warm" else None
        model.fit(self.train_dataset.subset(labeled), init_from=warm_source)
        self._model = model
        # A *real* model spec (kind + hyperparams, with the per-round
        # seed baked in) plus the labeled set and warm provenance.  The
        # serialized parameter state, from which restore rebuilds the
        # model, is injected lazily at snapshot() time so runs that
        # never snapshot pay nothing.
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
        metric_value = evaluate_model(self._model, self.test_dataset, cache=self._cache)
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
            if not is_int(label):
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
            tags = label.tolist() if isinstance(label, np.ndarray) else label
            if not isinstance(tags, (list, tuple)) or not all(map(is_int, tags)):
                raise IngestError(
                    f"sample {index}: label must be a list of tag ids, got {label!r}"
                )
            expected = len(dataset.sentences[index])
            if len(tags) != expected:
                raise IngestError(
                    f"sample {index}: expected {expected} tags, got {len(tags)}"
                )
            if not all(0 <= tag < dataset.num_tags for tag in tags):
                raise IngestError(
                    f"sample {index}: tag id out of range [0, {dataset.num_tags})"
                )
            return np.asarray(tags, dtype=np.int64)
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
        so runs that never snapshot pay nothing.  Specs restored from a
        snapshot already carry ``params`` and pass through.
        """
        if spec is None or "params" in spec:
            return spec
        return {**spec, "params": model.get_params()}

    def snapshot(self) -> dict:
        """The complete mid-run state as a JSON-compatible dict.

        Legal in every state; :meth:`restore` resumes from it with
        byte-identical continuation.  Components (model prototype,
        strategy, datasets) are fingerprinted, not serialised.
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
            # the byte shape they have without it.
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
                "training_mode": self.training_mode,
                **config_extra,
                "capabilities": strategy_capabilities(self.strategy),
            },
            "state": self._state.value,
            "round_index": self._round_index,
            "bootstrap_done": self._bootstrap_done,
            "rng": rng_state(self._rng),
            # Small index lists stay JSON lists, readable as they are;
            # the history and model arrays are encoded.
            "pool": self._pool.to_dict(),
            "history": self._history.to_snapshot(),
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
        observers: Sequence = (),
    ) -> "SessionEngine":
        """Resume a session from a :meth:`snapshot` payload.

        The components must be configured identically to the originals
        (the snapshot fingerprints strategy name, dataset sizes, and
        loop shape and rejects mismatches); fitted models are rebuilt
        from their serialized parameter state (O(params), bit-for-bit),
        and externally ingested labels are replayed into
        ``train_dataset``.  The recorded ``training_mode`` is resumed
        as-is.

        Raises
        ------
        SessionError
            If the payload is not a session snapshot, is from an
            unsupported version, has a malformed field (see
            :func:`check_snapshot`), holds a pool or history that cannot
            be rebuilt, does not match the components, or records a
            model without restorable parameters.
        """
        config = check_snapshot(snapshot)["config"]
        # Specs are compared only when both sides are spec-describable —
        # factory-built custom components keep the name/size fingerprint.
        fingerprint = (
            ("strategy", strategy.name, config["strategy"]),
            ("strategy spec", _try_strategy_spec(strategy), config.get("strategy_spec")),
            ("model spec", _try_model_spec(model_prototype), config.get("model")),
            ("train size", len(train_dataset), config["n_train"]),
            ("test size", len(test_dataset), config["n_test"]),
        )
        mismatches = [
            f"{label} {supplied!r} != {recorded!r}"
            for label, supplied, recorded in fingerprint
            if supplied is not None and recorded is not None and supplied != recorded
        ]
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
            seed_or_rng=rng_from_state(snapshot["rng"]),
            training_mode=config.get("training_mode") or "cold",
            track_flips=bool(config.get("track_flips")),
            observers=observers,
        )
        engine._state = SessionState(snapshot["state"])
        engine._round_index = int(snapshot["round_index"])
        engine._bootstrap_done = bool(snapshot["bootstrap_done"])
        # The field rules check types; the rebuilds check ranges, order
        # and shapes, so their errors are the snapshot's too.
        try:
            engine._pool = Pool.from_dict(snapshot["pool"])
        except (ConfigurationError, PoolError) as error:
            raise SessionError(f"session snapshot: pool: {error}") from None
        try:
            engine._history = HistoryStore.from_dict(snapshot["history"])
        except HistoryError as error:
            raise SessionError(f"session snapshot: history: {error}") from None
        sizes = {"pool.n": engine._pool.n, "history.n_samples": engine._history.n_samples}
        for name, size in sizes.items():
            if size != len(train_dataset):
                raise SessionError(
                    f"session snapshot: {name} is {size}, but the train split has "
                    f"{len(train_dataset)} samples"
                )
        engine._records = [record_from_dict(r) for r in snapshot["records"]]
        engine._selection_order = [
            np.asarray(selected, dtype=np.int64)
            for selected in snapshot["selection_order"]
        ]
        if snapshot["pending"] is not None:
            engine._pending = np.asarray(snapshot["pending"], dtype=np.int64)
        engine._metric_value = snapshot["metric_value"]
        for index, label in snapshot["ingested"]:
            engine._write_label(int(index), engine._validated_label(int(index), label))
        engine._model_spec = snapshot["model"]
        engine._model_history_specs = [dict(s) for s in snapshot["model_history"]]
        engine._model_history = [
            engine._rebuild_model(spec) for spec in engine._model_history_specs
        ]
        if (
            engine._model_history_specs
            and engine._model_spec == engine._model_history_specs[-1]
        ):
            engine._model = engine._model_history[-1]
        elif engine._model_spec is not None:
            engine._model = engine._rebuild_model(engine._model_spec)
        return engine

    def _rebuild_model(self, spec: dict):
        """Reproduce a fitted model from its snapshot spec's ``params``
        with ``set_params`` (an exact float round trip, O(params))."""
        model = self.model_prototype.clone()
        if spec["seed"] is not None:
            model.seed = int(spec["seed"])
        state = spec.get("params")
        if state is None:
            kind = "a warm-started model" if spec.get("warm") else "a model"
            raise SessionError(
                f"snapshot records {kind} but carries no serialized parameters"
            )
        try:
            return model.set_params(state)
        except (ConfigurationError, TypeError, ValueError, KeyError) as error:
            raise SessionError(
                f"snapshot model params cannot be restored: {error}"
            ) from None

    def __repr__(self) -> str:
        return (
            f"SessionEngine(strategy={self.strategy.name!r}, "
            f"state={self._state.value!r}, round={self._round_index})"
        )


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
