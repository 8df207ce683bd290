"""Tests for the transport-agnostic session service and its dispatcher.

The central claim under test: a session driven through the service —
create, propose, ingest, result — produces an :class:`ALResult` whose
JSON serialisation is byte-identical to a plain in-process
:class:`SessionEngine` run of the same recipe.  The service adds
multi-tenancy, persistence, and events, never arithmetic.
"""

import json

import pytest

from repro.core.session import SessionEngine, result_to_dict, run_to_completion
from repro.exceptions import (
    IngestError,
    ServiceError,
    SessionError,
    StoreConflictError,
)
from repro.experiments import ExperimentConfig
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

RECIPE = {
    "dataset": "mr",
    "scale": 0.05,
    "strategy": "entropy",
    "rounds": 2,
    "batch_size": 10,
    "epochs": 3,
    "seed": 3,
}


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
