"""Client for the AL session service, over HTTP or in process.

:class:`SessionClient` wraps the service API in plain Python methods.
It speaks through a transport:

* :class:`InProcessTransport` calls :func:`repro.service.app.dispatch`
  directly on a local :class:`~repro.service.app.SessionService` — no
  sockets, no serialisation beyond the JSON round-trip, no dependencies.
  The file-based ``repro session`` CLI runs on this transport.
* :class:`HttpTransport` speaks JSON over HTTP via ``urllib`` to a
  :mod:`repro.service.server` (or anything else that serves the API).

Both transports return the same ``(status, payload)`` pairs, and error
payloads carry the server-side exception class name, so the client
re-raises the *same* domain exception (:class:`IngestError`,
:class:`SessionError`, :class:`StoreConflictError`, ...) regardless of
transport — callers cannot tell the difference, which is the point.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from urllib.parse import urlencode

from ..exceptions import (
    ConfigurationError,
    IngestError,
    ServiceError,
    SessionError,
    SpecError,
    StoreConflictError,
    StoreError,
)
from .app import SessionService, dispatch

__all__ = ["HttpTransport", "InProcessTransport", "SessionClient"]

#: ``error_type`` payload values -> the exception class to re-raise.
_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (
        ConfigurationError,
        IngestError,
        SessionError,
        SpecError,
        StoreConflictError,
        StoreError,
    )
}


class InProcessTransport:
    """Transport that dispatches straight onto a local service.

    Payloads still make one JSON round-trip, so a client on this
    transport sees exactly the document shapes HTTP clients see (plain
    lists and dicts, no live numpy arrays) — byte-identical behaviour,
    zero network.
    """

    def __init__(self, service: SessionService) -> None:
        self.service = service

    def request(self, method, path, query=None, body=None) -> "tuple[int, dict]":
        """Dispatch one request; returns ``(status, payload)``."""
        encoded = None if body is None else json.loads(json.dumps(body))
        status, payload = dispatch(self.service, method, path, query, encoded)
        return status, json.loads(json.dumps(payload))


class HttpTransport:
    """Transport that speaks JSON over HTTP via ``urllib``.

    ``base_url`` is the server root (``http://127.0.0.1:8700``).
    Connection-level failures (refused, unreachable, timeout) raise
    :class:`~repro.exceptions.ServiceError` with status 503; HTTP error
    statuses are returned to the client for domain-error mapping.
    """

    def __init__(self, base_url: str, timeout: float = 600.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    def request(self, method, path, query=None, body=None) -> "tuple[int, dict]":
        """Perform one HTTP request; returns ``(status, payload)``."""
        url = self.base_url + path
        if query:
            url += "?" + urlencode(query)
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raw = error.read().decode("utf-8", errors="replace")
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                payload = {"error": raw or str(error), "error_type": "ServiceError"}
            return error.code, payload
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach session server at {self.base_url}: {error.reason}",
                status=503,
            ) from error


class SessionClient:
    """Typed façade over the session-service API.

    Methods return the service's JSON payloads unchanged; error
    responses are re-raised as the domain exception named in the
    payload's ``error_type`` (falling back to
    :class:`~repro.exceptions.ServiceError` carrying the HTTP status).
    """

    def __init__(self, transport) -> None:
        self.transport = transport

    @classmethod
    def in_process(cls, service: SessionService) -> "SessionClient":
        """A client bound directly to a local service instance."""
        return cls(InProcessTransport(service))

    @classmethod
    def http(cls, base_url: str, timeout: float = 600.0) -> "SessionClient":
        """A client speaking HTTP to ``base_url``."""
        return cls(HttpTransport(base_url, timeout=timeout))

    def _call(self, method, path, query=None, body=None) -> dict:
        """Issue one request, raising domain errors on failure statuses."""
        status, payload = self.transport.request(method, path, query, body)
        if status < 400:
            return payload
        message = payload.get("error", f"request failed with status {status}")
        error_cls = _ERROR_TYPES.get(payload.get("error_type"))
        if error_cls is not None:
            raise error_cls(message)
        raise ServiceError(message, status=status)

    def create(self, recipe: dict, session_id=None) -> dict:
        """Create a session; returns its id, shape, and stored recipe."""
        body = {"recipe": recipe}
        if session_id is not None:
            body["id"] = session_id
        return self._call("POST", "/sessions", body=body)

    def propose(self, session_id: str) -> dict:
        """Advance to the next proposal (or the finished result)."""
        return self._call("POST", f"/sessions/{session_id}/propose")

    def ingest(self, session_id, indices=None, labels=None, oracle=False) -> dict:
        """Label the pending batch (explicitly, or via the oracle)."""
        body = {"oracle": True} if oracle else {"indices": indices, "labels": labels}
        return self._call("POST", f"/sessions/{session_id}/ingest", body=body)

    def status(self, session_id: str) -> dict:
        """The stored document (recipe + snapshot) and feed position."""
        return self._call("GET", f"/sessions/{session_id}")

    def result(self, session_id: str) -> dict:
        """The finished session's audit trail."""
        return self._call("GET", f"/sessions/{session_id}/result")

    def events(self, session_id: str, after: int = 0) -> dict:
        """Lifecycle events with ``seq`` greater than ``after``."""
        return self._call(
            "GET", f"/sessions/{session_id}/events", query={"after": after}
        )

    def delete(self, session_id: str) -> dict:
        """Delete the session from the server's store."""
        return self._call("DELETE", f"/sessions/{session_id}")

    def list_sessions(self) -> list:
        """All stored sessions as ``{"id"}`` dicts."""
        return self._call("GET", "/sessions")["sessions"]

    def health(self) -> dict:
        """The server's liveness payload."""
        return self._call("GET", "/healthz")
