"""AL-as-a-service: a multi-tenant session server over one session store.

This package turns the re-entrant
:class:`~repro.core.session.SessionEngine` into a hosted service.  Three
layers, each usable on its own:

* :mod:`repro.service.store` — the :class:`SessionStore` persistence
  contract (versioned documents, optimistic compare-and-swap writes,
  atomic create) with JSON-directory, sqlite3, and in-memory backends;
  the ``repro session`` directory workflow persists through it too.
* :mod:`repro.service.app` — :class:`SessionService`, the
  transport-independent application over exactly one store:
  create-from-recipe or create-from-:class:`~repro.specs.ExperimentSpec`,
  propose / ingest / status / events / result operations addressed by
  session id, with per-session locking and store-level CAS for
  cross-process safety.
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib-only ``ThreadingHTTPServer`` front end and a
  :class:`SessionClient` that speaks either HTTP or an in-process
  transport.  The file-based ``repro session`` CLI is a thin client of
  the in-process transport, byte-identical to its pre-service behaviour.

Everything here is standard library only (``http.server``, ``sqlite3``,
``urllib``): hosting sessions adds no dependencies.
"""

from .app import RECIPE_DEFAULTS, SessionService, build_session_components, dispatch
from .client import HttpTransport, InProcessTransport, SessionClient
from .events import SessionEventFeed
from .server import SessionHTTPServer, make_server
from .store import (
    JsonSessionStore,
    MemorySessionStore,
    SessionStore,
    SqliteSessionStore,
    StoredSession,
)

__all__ = [
    "HttpTransport",
    "InProcessTransport",
    "JsonSessionStore",
    "MemorySessionStore",
    "RECIPE_DEFAULTS",
    "SessionClient",
    "SessionEventFeed",
    "SessionHTTPServer",
    "SessionService",
    "SessionStore",
    "SqliteSessionStore",
    "StoredSession",
    "build_session_components",
    "dispatch",
    "make_server",
]
