"""Tests for the transport-agnostic session service and its dispatcher.

The central claim under test: a session driven through the service —
create, propose, ingest, result — produces an :class:`ALResult` whose
JSON serialisation is byte-identical to a plain in-process
:class:`SessionEngine` run of the same recipe.  The service adds
multi-tenancy, persistence, and events, never arithmetic.
"""

import json

import numpy as np
import pytest

from repro.core.session import SessionEngine, result_to_dict, run_to_completion
from repro.exceptions import (
    IngestError,
    ServiceError,
    SessionError,
    StoreConflictError,
)
from repro.experiments import ExperimentConfig
from repro.ioutil import decode_array, encode_array
from repro.service import (
    MemorySessionStore,
    SessionClient,
    SessionService,
    SessionStore,
    SqliteSessionStore,
    build_session_components,
    dispatch,
)
from repro.specs import ExperimentSpec, Spec
from tests.core.test_session import MALFORMED_TAGS
from tests.golden.test_model_goldens import as_v3

RECIPE = {
    "dataset": "mr",
    "scale": 0.05,
    "strategy": "entropy",
    "rounds": 2,
    "batch_size": 10,
    "epochs": 3,
    "seed": 3,
}


#: Malformed flat recipes (patches to ``RECIPE``) and the domain error
#: each must surface as: a typed 400, never an escaped exception.
MALFORMED_RECIPES = {
    "scale-not-a-number": ({"scale": "abc"}, "SpecError"),
    "test-fraction-not-a-number": ({"test_fraction": "abc"}, "SpecError"),
    "rounds-null": ({"rounds": None}, "ConfigurationError"),
    "batch-size-string": ({"batch_size": "5"}, "ConfigurationError"),
    "strategy-not-a-string": ({"strategy": 5}, "SpecError"),
    "epochs-float": ({"epochs": 1.5}, "SpecError"),
}


#: Malformed ingest bodies, built from the pending batch, and a fragment
#: of the ``IngestError`` each must be: a 400 that writes nothing.
MALFORMED_INGESTS = {
    "string-index": (
        lambda p: {"indices": [str(p[0]), *p[1:]], "labels": None},
        "indices must be integers",
    ),
    "word-index": (
        lambda p: {"indices": ["first", *p[1:]], "labels": None},
        "indices must be integers, got 'first'",
    ),
    "null-index": (
        lambda p: {"indices": [None, *p[1:]], "labels": None},
        "indices must be integers, got None",
    ),
    "float-index": (
        lambda p: {"indices": [p[0] + 0.5, *p[1:]], "labels": None},
        "indices must be integers",
    ),
    "huge-index": (
        lambda p: {"indices": [2**70, *p[1:]], "labels": None},
        "indices were never proposed",
    ),
    "bool-index": (
        lambda p: {"indices": [True, *p[1:]], "labels": None},
        "indices must be integers, got True",
    ),
    "labels-number": (
        lambda p: {"indices": p, "labels": 5}, "labels must be a list, got 5"
    ),
    "labels-string": (
        lambda p: {"indices": p, "labels": "0" * len(p)}, "labels must be a list"
    ),
    "oracle-string": (
        lambda p: {"oracle": "no"}, "'oracle' must be true or false, got 'no'"
    ),
}


def _parent(document: dict, path: str) -> "tuple[dict, str]":
    """The object holding the dotted ``path`` of ``document``, and its key."""
    *parents, key = path.split(".")
    for parent in parents:
        document = document[parent]
    return document, key


def _set(path: str, value):
    """Damage that sets the dotted ``path`` of a stored document to ``value``."""

    def damage(document):
        holder, key = _parent(document, path)
        holder[key] = value

    return damage


def _drop(path: str):
    """Damage that removes the dotted ``path`` of a stored document."""

    def damage(document):
        holder, key = _parent(document, path)
        del holder[key]

    return damage


def _edit(path: str, change):
    """Damage that replaces the dotted ``path``'s value with ``change(value)``."""

    def damage(document):
        holder, key = _parent(document, path)
        holder[key] = change(holder[key])

    return damage


def _history_rows(rows):
    """Damage that stores the history as version 3's per-round ``rows``,
    built from the history's ``n_samples``."""

    def damage(document):
        history = document["session"]["history"]
        history.pop("scores", None)
        history["rounds"] = rows(history["n_samples"])

    return damage


def _history_of_five_samples(document):
    """Damage that leaves a well-formed history over 5 samples only."""
    history = document["session"]["history"]
    history["n_samples"] = 5
    history["scores"] = encode_array(np.full((len(history["rounds"]), 5), 0.5))


def _repeat_history_round(document):
    """Damage that records the history's one round twice (same round id)."""
    history = document["session"]["history"]
    matrix = decode_array(history["scores"], ValueError, "scores")
    history["rounds"] = history["rounds"] * 2
    history["scores"] = encode_array(np.vstack([matrix, matrix]))


#: Damage to a stored session document (saved right after the first
#: proposal) and the start of the field rule the ``SessionError`` names:
#: a typed 409 on the next re-hydration, never an escaped exception.
MALFORMED_DOCUMENTS = {
    "no-config": (_drop("session.config"), "config must be an object"),
    "no-rng": (_drop("session.rng"), "rng must be"),
    "no-pool": (_drop("session.pool"), "pool must be"),
    "bogus-state": (_set("session.state", "bogus"), "state must be one of"),
    "string-records": (_set("session.records", "x"), "records must be a list"),
    "null-model-history": (_set("session.model_history", None), "model_history must be"),
    "short-ingested-pair": (_set("session.ingested", [[1]]), "ingested must be"),
    "string-in-pending": (_set("session.pending", ["x"]), "pending must be"),
    "pending-past-int64": (
        _edit("session.pending", lambda pending: [2**70, *pending[1:]]), "pending must be"
    ),
    "selection-order-past-int64": (
        _edit("session.selection_order", lambda order: [[2**70], *order]),
        "selection_order must be",
    ),
    "selected-past-int64": (
        _edit("session.records", lambda records: [{**records[0], "selected": [2**63]}]),
        "records must be",
    ),
    "string-batch-size": (_set("session.config.batch_size", "five"), "config.batch_size must be"),
    "no-recipe": (_drop("recipe"), "recipe must be an object"),
    "reseed-model-false": (
        _set("session.config.reseed_model", False), "config.reseed_model must be"
    ),
    "history-limit-2": (_set("session.config.history_limit", 2), "config.history_limit must be"),
    "default-metric-false": (
        _set("session.config.default_metric", False), "config.default_metric must be"
    ),
    "string-params": (_set("session.model.params", "x"), "model.params must be"),
    "string-arrays": (_set("session.model.params.arrays", "x"), "model.params must be"),
    "no-meta": (_drop("session.model.params.meta"), "model.params must be"),
    "string-meta": (
        _set("session.model.params.meta.num_classes", "two"), "model.params must be"
    ),
    "scores-float32": (_set("session.history.scores.dtype", "<f4"), "history must be"),
    "scores-negative-dimension": (
        _edit("session.history.scores.shape", lambda shape: [-1, shape[1]]),
        "history must be",
    ),
    "scores-one-sample-short": (
        _edit("session.history.scores.shape", lambda shape: [shape[0], shape[1] - 1]),
        "history must be",
    ),
    "scores-a-list": (_set("session.history.scores", [[0.0]]), "history must be"),
    "encoded-array-float32": (
        _edit("session.model.params.arrays.W", lambda array: {**array, "dtype": "<f4"}),
        "model.params must be",
    ),
}

#: Damage that passes the field rules ``status`` checks and that only a
#: restore (``set_params``) sees: a typed 409 on re-hydration too.
UNRESTORABLE_DOCUMENTS = {
    "ragged-array": (
        _set("session.model.params.arrays.b", [[0.0], [0.0, 1.0]]),
        "model params cannot be restored",
    ),
    "bias-of-wrong-length": (
        _set("session.model.params.arrays.b", encode_array(np.zeros(3))),
        "model params cannot be restored: arrays.b",
    ),
    "encoded-array-bad-base64": (
        _edit("session.model.params.arrays.b", lambda array: {**array, "data": "!"}),
        "model params cannot be restored: arrays.b",
    ),
    "history-index-out-of-range": (
        _history_rows(lambda n: [{"round": 1, "indices": [0, n], "scores": [0.5, 0.5]}]),
        "history: sample index out of range",
    ),
    "misaligned-history-row": (
        _history_rows(lambda n: [{"round": 1, "indices": [0, 1], "scores": [0.5]}]),
        "history: indices",
    ),
    "pool-index-out-of-range": (
        _edit("session.pool.labeled", lambda labeled: [*labeled, 10**6]),
        "pool: index out of range",
    ),
    "scores-bad-base64-character": (
        _edit("session.history.scores.data", lambda data: "!" + data[1:]),
        "history: scores has malformed base64",
    ),
    "scores-truncated": (
        _edit("session.history.scores.data", lambda data: data[: len(data) // 8 * 4]),
        "history: scores holds",
    ),
    "repeated-history-round": (_repeat_history_round, "history: round"),
    "pool-larger-than-train-split": (
        _edit("session.pool.n", lambda n: n + 100), "pool.n is"
    ),
    "history-of-another-size": (_history_of_five_samples, "history.n_samples is 5"),
    "null-in-array": (
        _set("session.model.params.arrays.b", [None, None]),
        "model params cannot be restored: arrays.b is not a float array",
    ),
}

#: Damage to the stored model's arrays that set_params cannot see: a
#: typed 4xx no later than the next propose, which warm-starts from it.
DAMAGED_ARRAYS = {
    "missing-array": _drop("session.model.params.arrays.W"),
    "short-array": _set("session.model.params.arrays.W", [[0.0, 0.0]]),
    "short-encoded-array": _set(
        "session.model.params.arrays.W", encode_array(np.zeros((1, 2)))
    ),
}

#: A tiny NER session: conll-en at 5% scale, least-confidence picks.
NER_RECIPE = {
    "dataset": "conll-en",
    "scale": 0.05,
    "strategy": "lc",
    "rounds": 2,
    "batch_size": 4,
    "epochs": 2,
    "seed": 3,
}


def damage_document(document: dict, case: str) -> "tuple[dict, str]":
    """A deep copy of ``document`` with ``case``'s damage, and its message."""
    damage, message = {**MALFORMED_DOCUMENTS, **UNRESTORABLE_DOCUMENTS}[case]
    damaged = json.loads(json.dumps(document))
    damage(damaged)
    return damaged, message


@pytest.fixture(scope="module")
def proposed_document():
    """The stored document of a warm WSHS session right after its first
    proposal from a fitted model (so it carries a model spec and one
    recorded history round)."""
    store = MemorySessionStore()
    client = SessionClient.in_process(SessionService(store))
    client.create(
        dict(RECIPE, strategy="wshs:entropy", training_mode="warm"), session_id="s1"
    )
    client.propose("s1")
    client.ingest("s1", oracle=True)
    client.propose("s1")
    return store.load("s1").document


def malformed_ingest(case: str, pending: list) -> "tuple[dict, str]":
    build, message = MALFORMED_INGESTS[case]
    return build(pending), message


def serial_reference(recipe) -> str:
    """The JSON audit trail of a plain engine run — the ground truth."""
    train, test, model, strategy, settings = build_session_components(recipe)
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
    )
    return json.dumps(result_to_dict(run_to_completion(engine)))


def drive(client, session_id) -> dict:
    """Run one hosted session to completion with the auto-oracle."""
    while True:
        payload = client.propose(session_id)
        if payload.get("finished"):
            return payload
        client.ingest(session_id, oracle=True)


@pytest.fixture
def service():
    """A service over one in-memory store."""
    return SessionService(MemorySessionStore())


@pytest.fixture
def client(service):
    """The in-process client over the ``service`` fixture."""
    return SessionClient.in_process(service)


class TestSessionLifecycle:
    def test_create_normalizes_recipe_and_reports_shape(self, client):
        created = client.create(RECIPE, session_id="s1")
        assert created["id"] == "s1"
        assert created["round"] == 0
        # Caller keys keep their order; defaults are appended after.
        assert list(created["recipe"])[: len(RECIPE)] == list(RECIPE)
        assert created["recipe"]["window"] == 3
        assert created["n_train"] > 0 and created["n_test"] > 0

    def test_generated_ids_are_unique(self, client):
        first = client.create(RECIPE)["id"]
        second = client.create(RECIPE)["id"]
        assert first != second

    def test_duplicate_id_conflicts(self, client):
        client.create(RECIPE, session_id="s1")
        with pytest.raises(StoreConflictError, match="already exists"):
            client.create(RECIPE, session_id="s1")

    def test_result_matches_serial_run_byte_for_byte(self, client):
        client.create(RECIPE, session_id="s1")
        finished = drive(client, "s1")
        assert json.dumps(finished["result"]) == serial_reference(RECIPE)
        assert finished["curve"] == [[10, 0.7125], [20, 0.7875], [30, 0.6625]]

    def test_manual_labels_flow(self, client):
        client.create(RECIPE, session_id="s1")
        proposal = client.propose("s1")
        assert proposal["finished"] is False
        assert len(proposal["indices"]) == RECIPE["batch_size"]
        assert [s["index"] for s in proposal["samples"]] == proposal["indices"]
        assert all(s["text"] for s in proposal["samples"])
        assert set(proposal["labels_template"]) == {
            str(i) for i in proposal["indices"]
        }
        committed = client.ingest(
            "s1", indices=proposal["indices"], labels=[0, 1] * 5
        )
        assert committed["committed"] is True
        assert committed["round"] == 0  # the 0-based round just committed

    def test_status_and_listing(self, client):
        client.create(RECIPE, session_id="s1")
        status = client.status("s1")
        assert status["state"] == "propose"
        assert status["session"]["format"] == "repro.al_session"
        assert client.list_sessions() == [{"id": "s1"}]
        client.delete("s1")
        assert client.list_sessions() == []

    def test_result_before_finish_is_a_session_error(self, client):
        client.create(RECIPE, session_id="s1")
        with pytest.raises(SessionError):
            client.result("s1")

    def test_ingest_before_propose_is_a_session_error(self, client):
        client.create(RECIPE, session_id="s1")
        with pytest.raises(SessionError, match="not awaiting labels"):
            client.ingest("s1", oracle=True)

    def test_health(self, client):
        assert client.health() == {"status": "ok", "live_sessions": 0}
        client.create(RECIPE, session_id="s1")
        assert client.health()["live_sessions"] == 1


class TestExperimentRecipes:
    def test_create_from_experiment_document(self, client):
        spec = ExperimentSpec(
            dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 3}),
            strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
            config=ExperimentConfig(batch_size=10, rounds=2, repeats=1, seed=3),
        )
        recipe = {"experiment": spec.to_dict(), "strategy": "entropy"}
        created = client.create(recipe, session_id="exp1")
        assert created["recipe"] == recipe  # experiment recipes pass through
        finished = drive(client, "exp1")
        assert json.dumps(finished["result"]) == serial_reference(recipe)

    def test_ambiguous_strategy_rejected(self, client):
        spec = ExperimentSpec(
            dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 3}),
            strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
            config=ExperimentConfig(batch_size=10, rounds=2, repeats=1, seed=3),
        )
        with pytest.raises(ServiceError, match="pass 'strategy'"):
            client.create({"experiment": spec.to_dict()})

    def test_incomplete_flat_recipe_rejected(self, client):
        with pytest.raises(ServiceError, match="dataset"):
            client.create({"strategy": "entropy"})


class TestEvents:
    def test_feed_is_sequential_and_filterable(self, client):
        client.create(RECIPE, session_id="s1")
        drive(client, "s1")
        feed = client.events("s1")
        seqs = [event["seq"] for event in feed["events"]]
        assert seqs == list(range(1, len(seqs) + 1))
        assert feed["last_seq"] == seqs[-1]
        kinds = [event["event"] for event in feed["events"]]
        assert "batch_selected" in kinds
        assert "round_committed" in kinds
        assert kinds[-1] == "session_finished"
        # Incremental polling: `after` returns only newer entries.
        tail = client.events("s1", after=seqs[-2])
        assert [event["seq"] for event in tail["events"]] == [seqs[-1]]
        assert client.events("s1", after=seqs[-1])["events"] == []


class TestPersistence:
    def test_restart_continues_byte_identically(self, tmp_path):
        store = SqliteSessionStore(tmp_path / "sessions.db")
        first = SessionClient.in_process(SessionService(store))
        first.create(RECIPE, session_id="s1")
        proposal = first.propose("s1")
        first.ingest("s1", oracle=True)
        assert proposal["round"] == 0
        # A fresh service over the same store re-hydrates the engine from
        # its persisted snapshot and finishes with the exact serial result.
        second = SessionClient.in_process(SessionService(store))
        finished = drive(second, "s1")
        assert json.dumps(finished["result"]) == serial_reference(RECIPE)

    def test_concurrent_services_cas_protects_lost_updates(self, tmp_path):
        store_path = tmp_path / "sessions.db"
        service_a = SessionService(SqliteSessionStore(store_path))
        service_b = SessionService(SqliteSessionStore(store_path))
        client_a = SessionClient.in_process(service_a)
        client_b = SessionClient.in_process(service_b)
        client_a.create(RECIPE, session_id="s1")
        client_a.propose("s1")
        # B hydrates the same session and advances it; A's next write now
        # holds a stale version and must be refused, not silently clobber.
        client_b.propose("s1")
        client_b.ingest("s1", oracle=True)
        with pytest.raises(StoreConflictError, match="concurrent update"):
            client_a.ingest("s1", oracle=True)
        # A's stale engine was evicted; re-hydrating reads B's committed
        # round and the session finishes with the exact serial result.
        finished = drive(client_a, "s1")
        assert json.dumps(finished["result"]) == serial_reference(RECIPE)


class TestMalformedStoredDocuments:
    @pytest.mark.parametrize("case", [*MALFORMED_DOCUMENTS, *UNRESTORABLE_DOCUMENTS])
    def test_rehydration_is_a_typed_409(self, proposed_document, case):
        document, message = damage_document(proposed_document, case)
        store = MemorySessionStore()
        store.create("s1", document)
        status, payload = dispatch(SessionService(store), "GET", "/sessions/s1")
        assert status == 409, payload
        assert payload["error_type"] == "SessionError"
        assert message in payload["error"]

    def test_undamaged_document_rehydrates(self, proposed_document):
        store = MemorySessionStore()
        store.create("s1", proposed_document)
        status, payload = dispatch(SessionService(store), "GET", "/sessions/s1")
        assert status == 200, payload
        assert payload["state"] == "await_labels"

    def test_stored_version_3_session_rehydrates_and_finishes(self, proposed_document):
        document = json.loads(json.dumps(proposed_document))
        document["session"] = as_v3(document["session"])
        assert document["session"]["history"]["rounds"][0]["indices"]
        store = MemorySessionStore()
        store.create("s1", document)
        client = SessionClient.in_process(SessionService(store))
        client.ingest("s1", oracle=True)
        finished = drive(client, "s1")
        assert json.dumps(finished["result"]) == serial_reference(document["recipe"])
        assert store.load("s1").document["session"]["version"] == 4

    @pytest.mark.parametrize("case", list(DAMAGED_ARRAYS))
    def test_damaged_array_is_typed_by_the_next_propose(self, proposed_document, case):
        document = json.loads(json.dumps(proposed_document))
        DAMAGED_ARRAYS[case](document)
        store = MemorySessionStore()
        store.create("s1", document)
        service = SessionService(store)
        for method, path, body in (
            ("GET", "/sessions/s1", None),
            ("POST", "/sessions/s1/ingest", {"oracle": True}),
            ("POST", "/sessions/s1/propose", None),
        ):
            status, payload = dispatch(service, method, path, body=body)
            if status != 200:
                break
        assert status in (400, 409), payload
        assert payload["error_type"] in ("ConfigurationError", "SessionError")


class TestSequenceLabelIngest:
    """Tag-sequence labels through ``dispatch``: lists of tag ids only."""

    @staticmethod
    def _proposed(store):
        service = SessionService(store)
        dispatch(service, "POST", "/sessions", body={"recipe": NER_RECIPE, "id": "ner"})
        status, payload = dispatch(service, "POST", "/sessions/ner/propose")
        assert status == 200, payload
        train = build_session_components(NER_RECIPE)[0]
        indices = payload["indices"]
        return service, indices, [len(train.sentences[index]) for index in indices]

    @pytest.mark.parametrize("case", list(MALFORMED_TAGS))
    def test_malformed_tags_are_a_400_that_writes_nothing(self, case):
        store = MemorySessionStore()
        service, indices, lengths = self._proposed(store)
        labels = [[0] * length for length in lengths]
        labels[0] = MALFORMED_TAGS[case](lengths[0])
        before = store.load("ner").document
        status, payload = dispatch(
            service, "POST", "/sessions/ner/ingest",
            body={"indices": indices, "labels": labels},
        )
        assert status == 400, payload
        assert payload["error_type"] == "IngestError"
        assert f"sample {indices[0]}: " in payload["error"]
        assert store.load("ner").document == before
        assert dispatch(service, "GET", "/sessions/ner")[1]["state"] == "await_labels"

    def test_tag_ids_commit_and_replay_in_a_fresh_service(self):
        store = MemorySessionStore()
        service, indices, lengths = self._proposed(store)
        labels = [[position % 3 for position in range(length)] for length in lengths]
        status, payload = dispatch(
            service, "POST", "/sessions/ner/ingest",
            body={"indices": indices, "labels": labels},
        )
        assert status == 200 and payload["committed"], payload
        document = store.load("ner").document
        assert document["session"]["ingested"] == [
            [index, tags] for index, tags in zip(indices, labels)
        ]
        copy = MemorySessionStore()
        copy.create("ner", document)
        replayed = dispatch(SessionService(copy), "POST", "/sessions/ner/propose")
        assert replayed == dispatch(service, "POST", "/sessions/ner/propose")
        assert replayed[0] == 200


class TestDispatch:
    def test_unknown_session_is_404(self, service):
        status, payload = dispatch(service, "GET", "/sessions/nope")
        assert status == 404
        assert payload["error_type"] == "ServiceError"

    def test_unknown_path_is_404(self, service):
        assert dispatch(service, "GET", "/frobnicate")[0] == 404
        assert dispatch(service, "GET", "/sessions/s1/unknown")[0] == 404

    def test_wrong_method_is_405(self, service):
        assert dispatch(service, "POST", "/healthz")[0] == 405
        assert dispatch(service, "PUT", "/sessions")[0] == 405
        assert dispatch(service, "GET", "/sessions/s1/propose")[0] == 405

    def test_create_is_201_and_duplicate_409(self, service):
        status, payload = dispatch(
            service, "POST", "/sessions", body={"recipe": RECIPE, "id": "s1"}
        )
        assert status == 201 and payload["id"] == "s1"
        status, payload = dispatch(
            service, "POST", "/sessions", body={"recipe": RECIPE, "id": "s1"}
        )
        assert status == 409
        assert payload["error_type"] == "StoreConflictError"

    def test_bad_recipe_is_400(self, service):
        status, payload = dispatch(
            service, "POST", "/sessions", body={"recipe": {"dataset": "mr"}}
        )
        assert status == 400
        assert payload["error_type"] == "ServiceError"

    def test_bad_ingest_body_is_400(self, service):
        dispatch(service, "POST", "/sessions", body={"recipe": RECIPE, "id": "s1"})
        dispatch(service, "POST", "/sessions/s1/propose")
        status, payload = dispatch(service, "POST", "/sessions/s1/ingest", body={})
        assert status == 400
        assert payload["error_type"] == "IngestError"

    @pytest.mark.parametrize("case", list(MALFORMED_INGESTS))
    def test_malformed_ingest_is_typed_400(self, service, case):
        dispatch(service, "POST", "/sessions", body={"recipe": RECIPE, "id": "s1"})
        _, proposal = dispatch(service, "POST", "/sessions/s1/propose")
        _, before = dispatch(service, "GET", "/sessions/s1")
        body, message = malformed_ingest(case, proposal["indices"])
        status, payload = dispatch(service, "POST", "/sessions/s1/ingest", body=body)
        assert status == 400
        assert set(payload) == {"error", "error_type"}
        assert payload["error_type"] == "IngestError"
        assert message in payload["error"]
        _, after = dispatch(service, "GET", "/sessions/s1")
        assert after["state"] == "await_labels"
        assert after == before

    def test_client_re_raises_domain_exceptions(self, client):
        client.create(RECIPE, session_id="s1")
        client.propose("s1")
        with pytest.raises(IngestError, match="indices"):
            client.ingest("s1")


class TestMalformedRequests:
    """Malformed requests are 400s, answered before any store call or
    dataset build: the bare ``SessionStore`` raises on every method."""

    @pytest.fixture
    def untouchable(self, monkeypatch):
        def no_build(recipe):
            raise AssertionError("components built for a malformed request")

        monkeypatch.setattr("repro.service.app.build_session_components", no_build)
        return SessionService(SessionStore())

    def assert_400(self, response, match):
        status, payload = response
        assert status == 400, payload
        assert payload["error_type"] == "ServiceError"
        assert match in payload["error"]

    @pytest.mark.parametrize(
        "method,path",
        [
            ("GET", "/sessions/bad id"),
            ("DELETE", "/sessions/bad id"),
            ("POST", "/sessions/bad id/propose"),
            ("GET", "/sessions/" + "x" * 150 + "/events"),
        ],
        ids=["status", "delete", "propose", "events-150-chars"],
    )
    def test_illegal_path_id(self, untouchable, method, path):
        self.assert_400(dispatch(untouchable, method, path), "illegal session id")

    @pytest.mark.parametrize(
        "session_id", ["bad id", "x" * 150, 7], ids=["space", "150-chars", "int"]
    )
    def test_illegal_create_id(self, untouchable, session_id):
        body = {"recipe": RECIPE, "id": session_id}
        self.assert_400(
            dispatch(untouchable, "POST", "/sessions", body=body), "illegal session id"
        )

    def test_unknown_create_keys_are_named(self, untouchable):
        body = {"recipe": RECIPE, "id": "s1", "store": "sqlite"}
        self.assert_400(dispatch(untouchable, "POST", "/sessions", body=body), "'store'")

    def test_non_integer_after(self, untouchable):
        response = dispatch(
            untouchable, "GET", "/sessions/s1/events", query={"after": "abc"}
        )
        self.assert_400(response, "'after' must be an integer")

    def test_after_is_read_only_by_the_events_route(self, service):
        dispatch(service, "POST", "/sessions", body={"recipe": RECIPE, "id": "s1"})
        status, payload = dispatch(
            service, "POST", "/sessions/s1/propose", query={"after": "abc"}
        )
        assert status == 200 and payload["finished"] is False


class TestMalformedRecipes:
    """A malformed recipe fails at create with a typed 400 and stores nothing."""

    @pytest.mark.parametrize(
        "patch,error_type", list(MALFORMED_RECIPES.values()), ids=list(MALFORMED_RECIPES)
    )
    def test_flat_recipe(self, service, patch, error_type):
        body = {"recipe": dict(RECIPE, **patch)}
        status, payload = dispatch(service, "POST", "/sessions", body=body)
        assert status == 400, payload
        assert set(payload) == {"error", "error_type"}
        assert payload["error_type"] == error_type
        assert service.store.list_ids() == []

    def test_unhashable_experiment_strategy(self, service):
        document = ExperimentSpec(
            dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 3}),
            strategies={"entropy": Spec(kind="entropy")},
        ).to_dict()
        body = {"recipe": {"experiment": document, "strategy": ["entropy"]}}
        status, payload = dispatch(service, "POST", "/sessions", body=body)
        assert status == 400
        assert payload["error_type"] == "ServiceError"


class TestOneConstructionPath:
    """Flat recipes and ``repro compare`` flags name experiments one way."""

    def test_flat_recipe_matches_compare_flags(self):
        from repro.cli import _experiment_from_flags, build_parser
        from repro.service.app import _normalized_recipe, _recipe_experiment

        recipe = dict(RECIPE, strategy="wshs:entropy", window=4, training_mode="warm")
        spec, chosen = _recipe_experiment(_normalized_recipe(recipe))
        args = build_parser().parse_args([
            "compare", "--dataset", "mr", "--scale", "0.05", "--seed", "3",
            "--strategies", "wshs:entropy", "--window", "4", "--rounds", "2",
            "--batch-size", "10", "--epochs", "3", "--training-mode", "warm",
        ])

        def shape(document):
            return {k: v for k, v in document.items() if k not in ("runner", "report")}

        assert chosen == "wshs:entropy"
        assert shape(spec.to_dict()) == shape(_experiment_from_flags(args).to_dict())

    def test_settings_are_the_experiment_shape(self):
        *_components, settings = build_session_components(RECIPE)
        assert settings == ExperimentConfig(batch_size=10, rounds=2, seed=3).to_dict()


class TestStatusMetrics:
    """The ``metrics`` block of GET /sessions/{id}/status must agree
    with an offline metric-pipeline evaluation of the identical run."""

    def _experiment_recipe(self, track_flips=True):
        spec = ExperimentSpec(
            dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 3}),
            strategies={"entropy": Spec(kind="entropy")},
            config=ExperimentConfig(
                batch_size=10, rounds=2, repeats=1, seed=3,
                track_flips=track_flips,
            ),
        )
        return {"experiment": spec.to_dict(), "strategy": "entropy"}

    def _offline_metrics(self, recipe):
        """The offline reference: a plain engine run fed straight through
        the eval pipeline, exactly as a sweep report would compute it."""
        import math

        from repro.eval.pipeline import MetricContext
        from repro.specs import build_pipeline

        train, test, model, strategy, settings = build_session_components(recipe)
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
        )
        result = run_to_completion(engine)
        name = strategy.name
        computed = build_pipeline().compute(
            MetricContext(curves={name: result.curve(name)}, runs={name: [result]})
        )
        return {
            label: {
                s: (None if math.isnan(v) else v) for s, v in per.items()
            }
            for label, per in computed.items()
        }

    def test_status_metrics_match_offline_pipeline(self, client):
        recipe = self._experiment_recipe()
        client.create(recipe, session_id="m1")
        drive(client, "m1")
        payload = client.status("m1")
        assert payload["metrics"] == self._offline_metrics(recipe)

    def test_contradiction_applicable_only_with_tracking(self, client):
        recipe = self._experiment_recipe(track_flips=True)
        client.create(recipe, session_id="m2")
        drive(client, "m2")
        assert client.status("m2")["metrics"]["contradiction"]["Entropy"] is not None

        untracked = self._experiment_recipe(track_flips=False)
        client.create(untracked, session_id="m3")
        drive(client, "m3")
        assert client.status("m3")["metrics"]["contradiction"]["Entropy"] is None

    def test_metrics_empty_before_first_evaluation(self, client):
        client.create(self._experiment_recipe(), session_id="m4")
        assert client.status("m4")["metrics"] == {}

    def test_speedup_without_random_baseline_is_null(self, client):
        recipe = self._experiment_recipe()
        client.create(recipe, session_id="m5")
        drive(client, "m5")
        assert client.status("m5")["metrics"]["speedup"]["Entropy"] is None

    def test_metrics_survive_json_serialization(self, client):
        recipe = self._experiment_recipe()
        client.create(recipe, session_id="m6")
        drive(client, "m6")
        payload = client.status("m6")
        assert json.loads(json.dumps(payload["metrics"])) == payload["metrics"]
