"""Stdlib HTTP front end for the AL session service.

A thin JSON-over-HTTP skin on :func:`repro.service.app.dispatch`:
:class:`SessionHTTPServer` is a ``ThreadingHTTPServer`` (one thread per
request, so many sessions train concurrently), and the handler does
nothing but decode the request and encode the dispatch result.  All
routing, locking, and error mapping live in the app layer — which is
exactly why an HTTP-driven session behaves byte-identically to an
in-process one.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from ..ioutil import parse_json
from .app import SessionService, dispatch

__all__ = ["SessionHTTPServer", "SessionRequestHandler", "make_server"]


class SessionRequestHandler(BaseHTTPRequestHandler):
    """Translates one HTTP request to a :func:`~repro.service.app.dispatch` call.

    Request bodies are JSON (read via ``Content-Length``); responses are
    ``application/json`` with the status code dispatch chose.  A body
    that is not valid JSON is rejected with 400 before touching the
    service.
    """

    #: Stable even if the service lives behind a proxy that sniffs it.
    protocol_version = "HTTP/1.1"

    def _read_body(self) -> "dict | None":
        """The request's JSON body, ``None`` when empty."""
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return None
        return parse_json(self.rfile.read(length), ValueError, "request body is not valid JSON")

    def _respond(self, status: int, payload: dict) -> None:
        """Send ``payload`` as a JSON response with ``status``."""
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _handle(self, method: str) -> None:
        """Decode, dispatch, encode — shared by every HTTP verb."""
        url = urlsplit(self.path)
        try:
            body = self._read_body()
        except ValueError as error:
            self._respond(400, {"error": str(error), "error_type": "ServiceError"})
            return
        status, payload = dispatch(
            self.server.service, method, url.path, dict(parse_qsl(url.query)), body
        )
        self._respond(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        """Serve a GET request."""
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        """Serve a POST request."""
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming
        """Serve a DELETE request."""
        self._handle("DELETE")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default per-request stderr line (servers that want
        request logs attach a :class:`~repro.service.SessionEventFeed` or
        wrap dispatch instead)."""


class SessionHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` carrying the :class:`SessionService`.

    Each request runs on its own daemon thread, so slow operations (a
    retrain inside ``propose``) never block other sessions; requests on
    the *same* session serialise on the service's per-session lock.
    """

    daemon_threads = True

    def __init__(self, address, service: SessionService) -> None:
        super().__init__(address, SessionRequestHandler)
        self.service = service


def make_server(
    service: SessionService, host: str = "127.0.0.1", port: int = 0
) -> SessionHTTPServer:
    """Bind a :class:`SessionHTTPServer` (``port=0`` picks a free port).

    The server is bound but not serving; call ``serve_forever()`` (often
    on a background thread) and ``shutdown()`` to stop.  The chosen port
    is ``server.server_address[1]``.
    """
    return SessionHTTPServer((host, port), service)
