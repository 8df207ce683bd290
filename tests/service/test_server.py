"""End-to-end tests over a real HTTP server.

A live :class:`ThreadingHTTPServer` hosts the service over one store —
every test runs once against a json-directory server and once against a
sqlite server.  Many sessions with different seeds run to completion
from concurrent client threads, and every one must reproduce its serial
in-process reference byte-for-byte.  Transport, tenancy and backend must
be invisible in the results.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import ServiceError, SessionError, StoreConflictError
from repro.service import SessionClient, SessionService, make_server

from .test_app import RECIPE, drive, serial_reference
from .test_store import make_store


@pytest.fixture(params=["json", "sqlite"])
def http_client(request, tmp_path):
    """A client talking HTTP to a live server over one json or sqlite store."""
    server = make_server(SessionService(make_store(request.param, tmp_path)))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield SessionClient.http(f"http://127.0.0.1:{server.server_address[1]}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestHttpTransport:
    def test_health_over_http(self, http_client):
        assert http_client.health() == {"status": "ok", "live_sessions": 0}

    def test_single_session_round_trip(self, http_client):
        created = http_client.create(RECIPE, session_id="s1")
        assert created["id"] == "s1"
        finished = drive(http_client, "s1")
        assert json.dumps(finished["result"]) == serial_reference(RECIPE)
        result = http_client.result("s1")
        assert result["result"] == finished["result"]

    def test_domain_errors_cross_the_wire(self, http_client):
        with pytest.raises(ServiceError, match="unknown session") as caught:
            http_client.status("nope")
        assert caught.value.status == 404
        http_client.create(RECIPE, session_id="s1")
        with pytest.raises(StoreConflictError, match="already exists"):
            http_client.create(RECIPE, session_id="s1")
        with pytest.raises(SessionError, match="not awaiting labels"):
            http_client.ingest("s1", oracle=True)

    def test_malformed_requests_get_json_400s(self, http_client, capsys):
        probes = [
            ("GET", "/sessions/s1/events", {"after": "abc"}, None),
            ("GET", "/sessions/bad%20id", None, None),
            ("POST", "/sessions", None, {"recipe": RECIPE, "store": "sqlite"}),
        ]
        for method, path, query, body in probes:
            # A JSON error body, not a dropped connection.
            status, payload = http_client.transport.request(method, path, query, body)
            assert status == 400, (path, payload)
            assert set(payload) == {"error", "error_type"}
            assert payload["error_type"] == "ServiceError"
        assert "Traceback" not in capsys.readouterr().err

    def test_events_poll_over_http(self, http_client):
        http_client.create(RECIPE, session_id="s1")
        http_client.propose("s1")
        feed = http_client.events("s1")
        seqs = [event["seq"] for event in feed["events"]]
        assert seqs and seqs == list(range(1, len(seqs) + 1))
        assert http_client.events("s1", after=feed["last_seq"])["events"] == []

    def test_unreachable_server_is_a_service_error(self):
        client = SessionClient.http("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach session server"):
            client.health()

    def test_concurrent_sessions_match_serial_runs(self, http_client):
        recipes = [dict(RECIPE, seed=seed) for seed in range(8)]

        def run_one(index):
            session_id = f"con-{index}"
            http_client.create(recipes[index], session_id=session_id)
            return json.dumps(drive(http_client, session_id)["result"])

        with ThreadPoolExecutor(max_workers=8) as pool:
            served = list(pool.map(run_one, range(8)))
        references = [serial_reference(recipe) for recipe in recipes]
        assert served == references
        # Different seeds genuinely exercise different trajectories.
        assert len(set(references)) > 1
        assert [entry["id"] for entry in http_client.list_sessions()] == sorted(
            f"con-{index}" for index in range(8)
        )
