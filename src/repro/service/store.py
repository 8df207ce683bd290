"""Pluggable persistence for active-learning sessions.

A :class:`SessionStore` keeps versioned JSON documents addressed by
session id.  Every document is the same envelope the ``repro session``
directory workflow has always written (format
``repro.session_dir``: the session recipe plus the engine's pure-JSON
snapshot), so a session is portable across backends and inspectable with
nothing but a JSON tool.

The contract is deliberately small:

* :meth:`~SessionStore.load` returns the document **and an opaque
  version token**;
* :meth:`~SessionStore.save` optionally takes the token back and
  performs a compare-and-swap: if the stored version moved in the
  meantime (another worker committed first), the write is refused with
  :class:`~repro.exceptions.StoreConflictError` — the AL service maps
  that to HTTP 409 and the loser re-reads instead of silently clobbering
  the winner (the classic lost update);
* :meth:`~SessionStore.create` atomically refuses an existing id with
  the same conflict error — it is the service's only id-uniqueness
  check, so two racing creates of one id never both succeed.

A session server hosts exactly one store.  Three backends:

* :class:`JsonSessionStore` — one ``<id>.json`` file per session,
  written through :func:`repro.ioutil.atomic_write_text` (crash-safe:
  readers see the old or the new document, never a torn one).  Versions
  are content hashes; CAS is serialized per process and best-effort
  across processes — use sqlite when multiple *processes* race on one
  session.  This backend also carries the session CLI's
  ``session.json``, byte-identical to its pre-service layout.
* :class:`SqliteSessionStore` — a single ``sqlite3`` database with
  integer versions and transactional CAS (``BEGIN IMMEDIATE``), safe
  across processes and machines sharing the file.  A crash mid-write
  rolls back on the next open: the previous document and version
  survive intact.
* :class:`MemorySessionStore` — the in-memory reference implementation,
  for tests and ephemeral services.
"""

from __future__ import annotations

import hashlib
import json
import re
import sqlite3
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import StoreConflictError, StoreError
from ..ioutil import atomic_write_text

__all__ = [
    "JsonSessionStore",
    "MemorySessionStore",
    "SessionStore",
    "SqliteSessionStore",
    "StoredSession",
]

#: Legal session ids: filesystem- and URL-safe, bounded length.
_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,99}")


def checked_session_id(session_id: str) -> str:
    """Validate a session id against the store-safe alphabet.

    Ids become file names (JSON backend), primary keys (sqlite), and URL
    path segments (the HTTP API), so they are restricted to
    ``[A-Za-z0-9._-]``, must start alphanumeric, and are capped at 100
    characters.  Raises :class:`~repro.exceptions.StoreError` otherwise.
    """
    if not isinstance(session_id, str) or not _ID_PATTERN.fullmatch(session_id):
        raise StoreError(
            f"illegal session id {session_id!r}: ids must match "
            f"[A-Za-z0-9][A-Za-z0-9._-]* and be at most 100 characters"
        )
    return session_id


@dataclass(frozen=True)
class StoredSession:
    """One stored session document plus its opaque version token.

    ``version`` is whatever the backend uses to detect concurrent
    writes (an integer for sqlite/memory, a content hash for JSON
    files); callers hand it back to :meth:`SessionStore.save` unchanged
    and never interpret it.
    """

    document: dict
    version: object


class SessionStore:
    """Abstract contract every session-store backend implements.

    See the module docstring for the concurrency semantics.  Methods
    raise :class:`~repro.exceptions.StoreError` for corrupt documents or
    backend failures and
    :class:`~repro.exceptions.StoreConflictError` for optimistic-
    concurrency losses.
    """

    def load(self, session_id: str) -> "StoredSession | None":
        """The stored document and version, or ``None`` if absent."""
        raise NotImplementedError

    def save(self, session_id: str, document: dict, expected_version=None):
        """Write ``document``; returns the new version token.

        With ``expected_version=None`` the write is unconditional (the
        single-writer fast path).  Otherwise it is a compare-and-swap:
        the write succeeds only if the stored version still equals
        ``expected_version``, and raises
        :class:`~repro.exceptions.StoreConflictError` if another writer
        committed in between (or the document vanished).
        """
        raise NotImplementedError

    def delete(self, session_id: str) -> None:
        """Remove the session; idempotent (absent ids are a no-op)."""
        raise NotImplementedError

    def list_ids(self) -> list[str]:
        """All stored session ids, sorted."""
        raise NotImplementedError

    def create(self, session_id: str, document: dict):
        """Store a brand-new session; returns its first version token.

        Raises :class:`~repro.exceptions.StoreConflictError` if the id
        already exists — creating must never overwrite a live session.
        The existence check and the write are one atomic step.
        """
        raise NotImplementedError


class MemorySessionStore(SessionStore):
    """Dict-backed reference store (integer versions, process-local).

    Documents round-trip through ``json.dumps`` so the store only
    accepts JSON-compatible payloads and hands back isolated copies —
    exactly the guarantees the durable backends give.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()  # re-entrant: create calls save
        self._rows: dict[str, tuple[str, int]] = {}

    def load(self, session_id: str) -> "StoredSession | None":
        """The stored document and version, or ``None`` if absent."""
        checked_session_id(session_id)
        with self._lock:
            row = self._rows.get(session_id)
        if row is None:
            return None
        text, version = row
        return StoredSession(document=json.loads(text), version=version)

    def save(self, session_id: str, document: dict, expected_version=None) -> int:
        """Write ``document``; CAS when ``expected_version`` is given."""
        checked_session_id(session_id)
        text = json.dumps(document)
        with self._lock:
            current = self._rows.get(session_id)
            version = 0 if current is None else current[1]
            if expected_version is not None and version != expected_version:
                raise StoreConflictError(
                    f"concurrent update of session {session_id!r}: expected "
                    f"version {expected_version!r}, found {version!r}"
                )
            self._rows[session_id] = (text, version + 1)
            return version + 1

    def create(self, session_id: str, document: dict) -> int:
        """Check-and-insert a brand-new session under one lock hold."""
        with self._lock:
            if checked_session_id(session_id) in self._rows:
                raise StoreConflictError(f"session {session_id!r} already exists")
            return self.save(session_id, document)

    def delete(self, session_id: str) -> None:
        """Remove the session; idempotent."""
        checked_session_id(session_id)
        with self._lock:
            self._rows.pop(session_id, None)

    def list_ids(self) -> list[str]:
        """All stored session ids, sorted."""
        with self._lock:
            return sorted(self._rows)


class JsonSessionStore(SessionStore):
    """One atomic-written ``<id>.json`` document per session.

    The plain-files backend: inspectable, diffable, and byte-identical
    to the documents the pre-service code wrote (``json.dumps`` with
    default separators through the same atomic-write helper).  Version
    tokens are SHA-256 hashes of the file bytes; compare-and-swap
    re-reads and compares under a process-level lock, so it is exact
    within one process and best-effort across processes (the window
    between compare and rename).  Cross-process contention belongs on
    :class:`SqliteSessionStore`.
    """

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()  # re-entrant: create calls save

    def path(self, session_id: str) -> Path:
        """The document file backing one session id."""
        return self.directory / f"{checked_session_id(session_id)}.json"

    def _read(self, path: Path) -> "tuple[dict, str] | None":
        """``(document, content-hash)`` of ``path``, or ``None`` if absent."""
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as error:
            raise StoreError(f"cannot read session document {path}: {error}") from error
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise StoreError(
                f"corrupt session document {path}: {error}"
            ) from error
        return document, hashlib.sha256(text.encode("utf-8")).hexdigest()

    def load(self, session_id: str) -> "StoredSession | None":
        """The stored document and version, or ``None`` if absent."""
        row = self._read(self.path(session_id))
        if row is None:
            return None
        document, digest = row
        return StoredSession(document=document, version=digest)

    def save(self, session_id: str, document: dict, expected_version=None) -> str:
        """Atomically write ``document``; CAS on the content hash."""
        path = self.path(session_id)
        text = json.dumps(document)
        with self._lock:
            if expected_version is not None:
                row = self._read(path)
                current = None if row is None else row[1]
                if current != expected_version:
                    raise StoreConflictError(
                        f"concurrent update of session {session_id!r}: expected "
                        f"version {expected_version!r}, found {current!r}"
                    )
            atomic_write_text(path, text)
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def create(self, session_id: str, document: dict) -> str:
        """Check-and-write a brand-new document under one lock hold."""
        with self._lock:
            if self.path(session_id).exists():
                raise StoreConflictError(f"session {session_id!r} already exists")
            return self.save(session_id, document)

    def delete(self, session_id: str) -> None:
        """Remove the session's document; idempotent."""
        self.path(session_id).unlink(missing_ok=True)

    def list_ids(self) -> list[str]:
        """Stems of every ``*.json`` document in the directory, sorted."""
        return sorted(path.stem for path in self.directory.glob("*.json"))


class SqliteSessionStore(SessionStore):
    """Sessions in one sqlite3 database with transactional versioned CAS.

    Every write runs inside ``BEGIN IMMEDIATE`` so the version check and
    the update commit atomically; concurrent writers on the same session
    — other threads, other processes, other hosts sharing the file —
    serialize on the database lock and the loser's compare-and-swap
    fails with :class:`~repro.exceptions.StoreConflictError` instead of
    overwriting.  Versions are monotonically increasing integers.

    A crash mid-write (process killed between the update and the
    commit) is rolled back by sqlite's journal on the next connection:
    the previous document and version survive bit-for-bit — the
    fault-injection tests kill a writer at exactly that point.

    ``on_event`` is the deterministic crash-site hook those tests use:
    called with ``"begun"`` after the transaction opens, ``"written"``
    after the row is updated but *before* commit, and ``"committed"``
    after.
    """

    def __init__(
        self,
        path: "str | Path",
        timeout: float = 30.0,
        on_event: "Callable[[str], None] | None" = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.timeout = float(timeout)
        self._on_event = on_event
        with self._connect() as connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS sessions ("
                " id TEXT PRIMARY KEY,"
                " version INTEGER NOT NULL,"
                " document TEXT NOT NULL)"
            )

    def _connect(self) -> sqlite3.Connection:
        """A fresh autocommit-off connection (one per operation)."""
        connection = sqlite3.connect(self.path, timeout=self.timeout)
        connection.isolation_level = None  # explicit BEGIN/COMMIT below
        return connection

    def _emit(self, event: str) -> None:
        """Report one write-lifecycle step to the crash-site hook."""
        if self._on_event is not None:
            self._on_event(event)

    def load(self, session_id: str) -> "StoredSession | None":
        """The stored document and version, or ``None`` if absent."""
        checked_session_id(session_id)
        connection = self._connect()
        try:
            row = connection.execute(
                "SELECT document, version FROM sessions WHERE id = ?",
                (session_id,),
            ).fetchone()
        finally:
            connection.close()
        if row is None:
            return None
        try:
            document = json.loads(row[0])
        except json.JSONDecodeError as error:
            raise StoreError(
                f"corrupt session document {session_id!r} in {self.path}: {error}"
            ) from error
        return StoredSession(document=document, version=int(row[1]))

    def save(self, session_id: str, document: dict, expected_version=None) -> int:
        """Write ``document`` transactionally; CAS on the integer version."""
        checked_session_id(session_id)
        text = json.dumps(document)
        connection = self._connect()
        try:
            connection.execute("BEGIN IMMEDIATE")
            self._emit("begun")
            row = connection.execute(
                "SELECT version FROM sessions WHERE id = ?", (session_id,)
            ).fetchone()
            current = None if row is None else int(row[0])
            if expected_version is not None and current != expected_version:
                raise StoreConflictError(
                    f"concurrent update of session {session_id!r}: expected "
                    f"version {expected_version!r}, found {current!r}"
                )
            version = 1 if current is None else current + 1
            if current is None:
                connection.execute(
                    "INSERT INTO sessions (id, version, document) VALUES (?, ?, ?)",
                    (session_id, version, text),
                )
            else:
                connection.execute(
                    "UPDATE sessions SET version = ?, document = ? WHERE id = ?",
                    (version, text, session_id),
                )
            self._emit("written")
            connection.execute("COMMIT")
            self._emit("committed")
            return version
        except sqlite3.Error as error:
            raise StoreError(f"sqlite session store {self.path}: {error}") from error
        finally:
            connection.close()

    def create(self, session_id: str, document: dict) -> int:
        """Atomically insert a brand-new session (conflict if it exists)."""
        checked_session_id(session_id)
        text = json.dumps(document)
        connection = self._connect()
        try:
            connection.execute("BEGIN IMMEDIATE")
            try:
                connection.execute(
                    "INSERT INTO sessions (id, version, document) VALUES (?, 1, ?)",
                    (session_id, text),
                )
            except sqlite3.IntegrityError:
                raise StoreConflictError(
                    f"session {session_id!r} already exists"
                ) from None
            connection.execute("COMMIT")
            return 1
        except (StoreConflictError, StoreError):
            raise
        except sqlite3.Error as error:
            raise StoreError(f"sqlite session store {self.path}: {error}") from error
        finally:
            connection.close()

    def delete(self, session_id: str) -> None:
        """Remove the session's row; idempotent."""
        checked_session_id(session_id)
        connection = self._connect()
        try:
            connection.execute("BEGIN IMMEDIATE")
            connection.execute("DELETE FROM sessions WHERE id = ?", (session_id,))
            connection.execute("COMMIT")
        except sqlite3.Error as error:
            raise StoreError(f"sqlite session store {self.path}: {error}") from error
        finally:
            connection.close()

    def list_ids(self) -> list[str]:
        """All stored session ids, sorted."""
        connection = self._connect()
        try:
            rows = connection.execute("SELECT id FROM sessions ORDER BY id").fetchall()
        finally:
            connection.close()
        return [row[0] for row in rows]
