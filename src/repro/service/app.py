"""The transport-independent AL session service.

:class:`SessionService` hosts many concurrent
:class:`~repro.core.session.SessionEngine` sessions, each addressed by
id and persisted in one :class:`~repro.service.store.SessionStore`
(json directory, sqlite, or memory).  Every mutation follows the
same discipline: lock the session (serialising the threads of *this*
process), drive the engine, then write the updated document back with a
version-checked compare-and-swap (catching writers in *other*
processes).  A lost CAS surfaces as
:class:`~repro.exceptions.StoreConflictError` — HTTP 409 — and the
cached engine is dropped so the next request reloads the winner's state.

:func:`dispatch` maps ``(method, path, query, body)`` requests onto the
service and domain errors onto HTTP statuses.  It is the single routing
table both transports share: the :mod:`~repro.service.server` HTTP
front end and the :class:`~repro.service.client.InProcessTransport`
call the same function, which is what makes a session driven over HTTP
byte-identical to one driven in process.
"""

from __future__ import annotations

import itertools
import math
import threading
from types import SimpleNamespace

from ..core.session import SessionEngine, SessionState, result_to_dict
from ..eval.curves import LearningCurve
from ..eval.pipeline import MetricContext
from ..exceptions import (
    ConfigurationError,
    IngestError,
    ReproError,
    ServiceError,
    SessionError,
    SpecError,
    StoreConflictError,
    StoreError,
)
from ..experiments.config import ExperimentConfig
from ..formats import SESSION_DIR_FORMAT, SESSION_DIR_VERSION
from ..ioutil import check_fields, validate_envelope
from ..specs import (
    ExperimentSpec,
    build_model,
    build_pipeline,
    build_strategy,
    shorthand_experiment,
)
from .events import SessionEventFeed
from .store import SessionStore, checked_session_id

__all__ = [
    "RECIPE_DEFAULTS",
    "SessionService",
    "build_session_components",
    "dispatch",
    "session_metrics",
]

#: Optional recipe keys and their defaults — the same values the
#: ``repro session init`` flags default to, so a minimal recipe
#: (``dataset`` + ``strategy``) behaves exactly like the minimal CLI
#: invocation.
RECIPE_DEFAULTS = {
    "scale": 0.2,
    "test_fraction": 0.3,
    "window": 3,
    "epochs": 5,
    "batch_size": 25,
    "rounds": 10,
    "initial_size": None,
    "seed": 7,
    "ranker": None,
    "training_mode": "cold",
}


#: The fields of a stored session document besides its envelope; the
#: snapshot's own fields are checked by ``SessionEngine.restore``.
_DOCUMENT_RULES = {
    "recipe": ("an object", lambda value: isinstance(value, dict)),
    "session": ("an object", lambda value: isinstance(value, dict)),
}


def checked_document(document, source: str) -> dict:
    """``document`` if it is a stored session; a ``SessionError`` naming the field otherwise."""
    validate_envelope(document, SESSION_DIR_FORMAT, SESSION_DIR_VERSION, SessionError, source)
    check_fields(document, _DOCUMENT_RULES, SessionError, source)
    return document


def _checked_id(session_id) -> str:
    """``session_id`` if legal; a 400 before any store call otherwise."""
    try:
        return checked_session_id(session_id)
    except StoreError as error:
        raise ServiceError(str(error), status=400) from None


def _normalized_recipe(recipe) -> dict:
    """Fill a recipe's optional keys with :data:`RECIPE_DEFAULTS`.

    The caller's key order is preserved (a fully specified recipe passes
    through untouched — the byte-identity contract with the session
    CLI); missing optional keys are appended with their defaults.
    Experiment-based recipes (``{"experiment": ..., "strategy": ...}``)
    carry their configuration inside the experiment document and pass
    through unchanged.
    """
    if not isinstance(recipe, dict):
        raise ServiceError("recipe must be a JSON object", status=400)
    if "experiment" in recipe:
        return dict(recipe)
    if "dataset" not in recipe or "strategy" not in recipe:
        raise ServiceError(
            "recipe needs 'dataset' and 'strategy' (or an 'experiment' document)",
            status=400,
        )
    normalized = dict(recipe)
    for key, value in RECIPE_DEFAULTS.items():
        normalized.setdefault(key, value)
    return normalized


def _recipe_experiment(recipe: dict) -> "tuple[ExperimentSpec, str]":
    """The experiment a normalized recipe describes, and its strategy's name."""
    if "experiment" not in recipe:
        spec = shorthand_experiment(
            recipe["dataset"],
            [recipe["strategy"]],
            scale=recipe["scale"],
            seed=recipe["seed"],
            test_fraction=recipe["test_fraction"],
            window=recipe["window"],
            ranker=recipe["ranker"],
            epochs=recipe["epochs"],
            config=ExperimentConfig(
                batch_size=recipe["batch_size"],
                rounds=recipe["rounds"],
                initial_size=recipe["initial_size"],
                seed=recipe["seed"],
                training_mode=recipe["training_mode"],
            ),
        )
        return spec, recipe["strategy"]
    spec = ExperimentSpec.from_dict(recipe["experiment"])
    names = list(spec.strategies)
    chosen = recipe.get("strategy")
    if chosen is None:
        if len(names) != 1:
            raise ServiceError(
                f"experiment document defines {len(names)} strategies "
                f"({names}); pass 'strategy' to pick one",
                status=400,
            )
        chosen = names[0]
    if chosen not in names:
        raise ServiceError(
            f"unknown strategy {chosen!r}; the experiment defines {names}",
            status=400,
        )
    return spec, chosen


def build_session_components(recipe: dict):
    """Build ``(train, test, model, strategy, settings)`` from a recipe.

    Two recipe flavours, one construction path (recipe ->
    :class:`~repro.specs.ExperimentSpec` -> components):

    * a **flat recipe** — the dict the session CLI has always stored
      (``dataset``, ``scale``, ``strategy``, ``window``, ...); it names
      its experiment through
      :func:`~repro.specs.shorthand_experiment`, exactly as the
      ``repro compare`` flags do, so a recipe stored before the service
      existed reconstructs the same components.
    * an **experiment recipe** — ``{"experiment": <repro.experiment
      document>, "strategy": <name>}``: the session is created straight
      from a declarative :class:`~repro.specs.ExperimentSpec`, choosing
      one of its strategies (``strategy`` may be omitted when the
      document defines exactly one).

    ``settings`` is the experiment shape,
    :meth:`~repro.experiments.ExperimentConfig.to_dict` (``batch_size``,
    ``rounds``, ``initial_size``, ``seed``, ``training_mode``, ...).
    Construction is deterministic given the recipe: every rebuild
    yields identical components, which is what lets a restored engine
    continue byte-identically.
    """
    spec, chosen = _recipe_experiment(_normalized_recipe(recipe))
    train, test, _task = spec.build_datasets()
    model = build_model(spec.resolved_model())
    strategy = build_strategy(spec.strategies[chosen])
    return train, test, model, strategy, spec.config.to_dict()


def session_metrics(engine, recipe=None) -> dict:
    """The default metric pipeline over one session's curve so far.

    The same :class:`~repro.eval.pipeline.MetricPipeline` offline sweep
    reports use, fed the session's partial learning curve, history, and
    selection order — so the service's numbers agree with an offline
    evaluation of the identical run by construction.  Inapplicable
    metrics (speed-up without a baseline strategy, contradiction rate
    without ``track_flips``) come back as ``None``; before the first
    evaluated round the block is empty.
    """
    records = [r for r in engine.records if r.metric is not None]
    if not records:
        return {}
    name = engine.strategy.name
    curve = LearningCurve(
        [r.labeled_count for r in records],
        [r.metric for r in records],
        label=name,
    )
    costs = None
    if isinstance(recipe, dict) and "experiment" in recipe:
        try:
            costs = ExperimentSpec.from_dict(
                recipe["experiment"]
            ).annotation_costs(engine.train_dataset)
        except ReproError:
            costs = None
    run = SimpleNamespace(
        history=engine.history,
        selection_order=engine.selection_order,
        curve=lambda label="": curve,
    )
    computed = build_pipeline().compute(
        MetricContext(curves={name: curve}, runs={name: [run]}, costs=costs)
    )
    # NaN is not valid JSON; the wire format for "not applicable" is null.
    return {
        label: {
            strategy: (None if math.isnan(value) else value)
            for strategy, value in per_strategy.items()
        }
        for label, per_strategy in computed.items()
    }


class _LiveSession:
    """One hosted session: engine + recipe + event feed + lock + version."""

    def __init__(self, recipe, engine, feed, version) -> None:
        self.recipe = recipe
        self.engine = engine
        self.feed = feed
        self.version = version
        self.lock = threading.Lock()


class SessionService:
    """Multi-tenant session host over one :class:`~repro.service.store.SessionStore`.

    Engines are cached in memory per process and re-hydrated from the
    store on demand, so the service survives restarts and several
    service processes can share one sqlite store: the per-write CAS
    rejects whichever process lost a race.
    """

    def __init__(self, store: SessionStore) -> None:
        self.store = store
        self._lock = threading.Lock()
        self._live: dict[str, _LiveSession] = {}
        self._ids = itertools.count(1)  # next() is atomic under the GIL

    # -- store plumbing ----------------------------------------------------

    def _document(self, live: _LiveSession) -> dict:
        """The session's persistent document (the CLI's exact envelope)."""
        return {
            "format": SESSION_DIR_FORMAT,
            "version": SESSION_DIR_VERSION,
            "recipe": live.recipe,
            "session": live.engine.snapshot(),
        }

    def _save(self, session_id: str, live: _LiveSession) -> None:
        """CAS-write the session back; on conflict, drop the stale engine."""
        try:
            live.version = self.store.save(
                session_id, self._document(live), expected_version=live.version
            )
        except StoreConflictError:
            with self._lock:
                self._live.pop(session_id, None)
            raise

    def _session(self, session_id: str) -> _LiveSession:
        """The live session for ``session_id``, re-hydrating from its store.

        Unknown ids raise :class:`~repro.exceptions.ServiceError` 404.
        """
        with self._lock:
            live = self._live.get(session_id)
            if live is not None:
                return live
        row = self.store.load(session_id)
        if row is None:
            raise ServiceError(f"unknown session {session_id!r}", status=404)
        payload = checked_document(row.document, f"stored session {session_id!r}")
        recipe = payload["recipe"]
        train, test, model, strategy, _settings = build_session_components(recipe)
        feed = SessionEventFeed()
        engine = SessionEngine.restore(
            payload["session"], model, strategy, train, test, observers=[feed]
        )
        live = _LiveSession(recipe, engine, feed, row.version)
        with self._lock:
            # Another thread may have hydrated concurrently; keep the first.
            return self._live.setdefault(session_id, live)

    def _store_new(self, session_id: "str | None", document: dict) -> "tuple[str, object]":
        """``(id, version)`` of a new document; without an id, the first
        free ``session-N`` (the store's atomic ``create`` decides)."""
        while True:
            candidate = session_id or f"session-{next(self._ids)}"
            try:
                return candidate, self.store.create(candidate, document)
            except StoreConflictError:
                if session_id is not None:
                    raise

    # -- operations --------------------------------------------------------

    def create(self, body: dict) -> dict:
        """Create a session from ``{"recipe": ..., "id"?}``.

        Builds the components, runs the engine to its first proposal's
        doorstep (state ``PROPOSE``), and persists the initial document
        with the store's atomic create — an existing id is refused with
        409.  Any other body key, or an illegal id, is a 400.
        """
        if not isinstance(body, dict):
            raise ServiceError("create body must be a JSON object", status=400)
        unknown = sorted(set(body) - {"recipe", "id"})
        if unknown:
            raise ServiceError(
                f"unknown create-body keys {unknown}; allowed: 'recipe', 'id'", status=400
            )
        recipe = _normalized_recipe(body.get("recipe"))
        session_id = body.get("id")
        if session_id is not None:
            _checked_id(session_id)
        train, test, model, strategy, settings = build_session_components(recipe)
        feed = SessionEventFeed()
        engine = SessionEngine(
            model,
            strategy,
            train,
            test,
            batch_size=settings["batch_size"],
            rounds=settings["rounds"],
            initial_size=settings["initial_size"],
            seed_or_rng=settings["seed"],
            training_mode=settings["training_mode"],
            track_flips=settings.get("track_flips", False),
            observers=[feed],
        )
        live = _LiveSession(recipe, engine, feed, version=None)
        session_id, live.version = self._store_new(session_id, self._document(live))
        with self._lock:
            self._live[session_id] = live
        return {
            "id": session_id,
            "state": engine.state.value,
            "round": engine.round_index,
            "n_train": len(train),
            "n_test": len(test),
            "recipe": recipe,
        }

    def _proposal_payload(self, session_id: str, live: _LiveSession) -> dict:
        """The pending batch rendered for an annotator (decoded text)."""
        engine = live.engine
        pending = engine.pending
        train = engine.train_dataset
        samples = [
            {
                "index": index,
                "text": " ".join(train.vocab.decode(train.sentences[index])),
            }
            for index in pending.tolist()
        ]
        return {
            "id": session_id,
            "state": engine.state.value,
            "finished": False,
            "round": engine.round_index,
            "indices": pending.tolist(),
            "samples": samples,
            "labels_template": {str(index): None for index in pending.tolist()},
            "recipe": live.recipe,
        }

    def _result_payload(self, session_id: str, live: _LiveSession) -> dict:
        """The finished session's audit trail as a JSON document."""
        result = live.engine.result()
        curve = result.curve()
        return {
            "id": session_id,
            "state": live.engine.state.value,
            "finished": True,
            "round": live.engine.round_index,
            "result": result_to_dict(result),
            "curve": [
                [int(count), float(value)]
                for count, value in zip(curve.counts, curve.values)
            ],
            "recipe": live.recipe,
        }

    def propose(self, session_id: str) -> dict:
        """Advance to the next batch awaiting labels (or the end).

        Persists the advanced state, then returns either the proposal
        (indices, decoded samples, labels template) or — once the
        session is finished — the full result payload.
        """
        live = self._session(session_id)
        with live.lock:
            pending = live.engine.propose()
            self._save(session_id, live)
            if pending is None:
                return self._result_payload(session_id, live)
            return self._proposal_payload(session_id, live)

    def ingest(self, session_id: str, body: dict) -> dict:
        """Label the pending batch and commit it.

        ``body`` is ``{"oracle": true}`` (answer from the dataset's own
        labels, the smoke-test mode) or ``{"indices": [...], "labels":
        [...]}``.  The commit happens before the reply, so the persisted
        document always lands on a round boundary; the (long) retrain
        runs on the next :meth:`propose`.
        """
        if not isinstance(body, dict):
            raise ServiceError("ingest body must be a JSON object", status=400)
        live = self._session(session_id)
        with live.lock:
            engine = live.engine
            if engine.state is not SessionState.AWAIT_LABELS:
                raise SessionError(
                    f"session is not awaiting labels (state={engine.state.value!r}); "
                    "propose first"
                )
            oracle = body.get("oracle", False)
            if not isinstance(oracle, bool):
                raise IngestError(f"'oracle' must be true or false, got {oracle!r}")
            if oracle:
                engine.ingest_labels(engine.pending)
            else:
                indices = body.get("indices")
                if not isinstance(indices, list):
                    raise IngestError(
                        "ingest body needs 'indices' (a list) or 'oracle': true"
                    )
                engine.ingest_labels(indices, body.get("labels"))
            engine.step()  # commit the batch before the (long) retrain
            self._save(session_id, live)
            return {
                "id": session_id,
                "state": engine.state.value,
                "round": engine.round_index,
                "committed": True,
            }

    def status(self, session_id: str) -> dict:
        """The session's stored document plus live feed position."""
        live = self._session(session_id)
        with live.lock:
            snapshot = live.engine.snapshot()
            return {
                "id": session_id,
                "state": snapshot["state"],
                "round": snapshot["round_index"],
                "recipe": live.recipe,
                "session": snapshot,
                "metrics": session_metrics(live.engine, live.recipe),
                "last_seq": live.feed.last_seq,
            }

    def result(self, session_id: str) -> dict:
        """The finished session's audit trail (409 until finished)."""
        live = self._session(session_id)
        with live.lock:
            return self._result_payload(session_id, live)

    def events(self, session_id: str, after: int = 0) -> dict:
        """Lifecycle events with ``seq`` greater than ``after``."""
        live = self._session(session_id)
        return {
            "id": session_id,
            "events": live.feed.since(after),
            "last_seq": live.feed.last_seq,
        }

    def delete(self, session_id: str) -> dict:
        """Remove the session from memory and the store (404 if unknown)."""
        with self._lock:
            live = self._live.pop(session_id, None)
        if live is None and self.store.load(session_id) is None:
            raise ServiceError(f"unknown session {session_id!r}", status=404)
        self.store.delete(session_id)
        return {"id": session_id, "deleted": True}

    def list_sessions(self) -> dict:
        """Every stored session id."""
        return {"sessions": [{"id": session_id} for session_id in self.store.list_ids()]}

    def health(self) -> dict:
        """Liveness payload: the hosted-session count."""
        return {"status": "ok", "live_sessions": len(self._live)}


#: Exception class -> HTTP status, checked in order (subclasses first).
_ERROR_STATUS = (
    (StoreConflictError, 409),
    (IngestError, 400),
    (SessionError, 409),
    (SpecError, 400),
    (ConfigurationError, 400),
    (StoreError, 500),
)


def _error_response(error: ReproError) -> "tuple[int, dict]":
    """Map a domain error onto ``(status, payload)``.

    The payload carries ``error_type`` (the exception class name) so the
    client can re-raise the *same* domain exception the in-process path
    would have raised — transport must never change what callers catch.
    """
    if isinstance(error, ServiceError):
        status = error.status
    else:
        status = next(
            (code for cls, code in _ERROR_STATUS if isinstance(error, cls)), 400
        )
    return status, {"error": str(error), "error_type": type(error).__name__}


def _after(query: dict) -> int:
    """The events route's ``after`` query value (400 unless an integer)."""
    raw = query.get("after", 0)
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ServiceError(f"'after' must be an integer, got {raw!r}", status=400) from None


def dispatch(
    service: SessionService,
    method: str,
    path: str,
    query: "dict | None" = None,
    body: "dict | None" = None,
) -> "tuple[int, dict]":
    """Route one request onto ``service``; returns ``(status, payload)``.

    The single routing table shared by the HTTP server and the
    in-process transport::

        GET    /healthz                    liveness
        GET    /sessions                   list sessions
        POST   /sessions                   create (201)
        GET    /sessions/{id}              status
        DELETE /sessions/{id}              delete
        POST   /sessions/{id}/propose      advance to the next proposal
        POST   /sessions/{id}/ingest       label + commit the pending batch
        GET    /sessions/{id}/result       finished audit trail
        GET    /sessions/{id}/events       feed entries with seq > ``after``

    Domain errors become ``(status, {"error", "error_type"})`` — see
    :func:`_error_response`; unknown paths 404, wrong methods 405, and
    illegal ids, unknown create-body keys or a non-integer ``after`` 400
    before any store call.
    """
    query = query or {}
    parts = [part for part in path.split("/") if part]
    try:
        if parts == ["healthz"]:
            if method != "GET":
                raise ServiceError(f"{method} not allowed on /healthz", status=405)
            return 200, service.health()
        if not parts or parts[0] != "sessions" or len(parts) > 3:
            raise ServiceError(f"no such endpoint: {path}", status=404)
        if len(parts) == 1:
            if method == "GET":
                return 200, service.list_sessions()
            if method == "POST":
                return 201, service.create(body or {})
            raise ServiceError(f"{method} not allowed on /sessions", status=405)
        session_id = _checked_id(parts[1])
        if len(parts) == 2:
            if method == "GET":
                return 200, service.status(session_id)
            if method == "DELETE":
                return 200, service.delete(session_id)
            raise ServiceError(
                f"{method} not allowed on /sessions/{session_id}", status=405
            )
        action = parts[2]
        handlers = {
            ("POST", "propose"): lambda: service.propose(session_id),
            ("POST", "ingest"): lambda: service.ingest(session_id, body or {}),
            ("GET", "result"): lambda: service.result(session_id),
            ("GET", "events"): lambda: service.events(session_id, after=_after(query)),
        }
        handler = handlers.get((method, action))
        if handler is None:
            if any(name == action for _method, name in handlers):
                raise ServiceError(
                    f"{method} not allowed on /sessions/{session_id}/{action}",
                    status=405,
                )
            raise ServiceError(f"no such endpoint: {path}", status=404)
        return 200, handler()
    except ReproError as error:
        return _error_response(error)
