"""Contract tests for every :class:`SessionStore` backend.

One parametrized suite asserts the shared semantics — versioned loads,
compare-and-swap saves, conflict-on-create, idempotent deletes — across
the memory, JSON-directory, and sqlite backends, then backend-specific
classes cover what only that backend promises: byte-layout for JSON,
transactional lost-update rejection and crash-mid-write recovery for
sqlite.
"""

import json
import multiprocessing
import threading
import time

import pytest

from repro.exceptions import StoreConflictError, StoreError
from repro.service import (
    JsonSessionStore,
    MemorySessionStore,
    SqliteSessionStore,
)

from ..faults import FaultSpec

DOC = {"format": "repro.session_dir", "version": 1, "recipe": {"k": 1}, "session": {"s": 2}}


def make_store(kind, tmp_path):
    """One fresh store of the requested backend rooted in ``tmp_path``."""
    if kind == "memory":
        return MemorySessionStore()
    if kind == "json":
        return JsonSessionStore(tmp_path / "sessions")
    return SqliteSessionStore(tmp_path / "sessions.db")


@pytest.fixture(params=["memory", "json", "sqlite"])
def store(request, tmp_path):
    """Each backend in turn, so every test runs against all three."""
    return make_store(request.param, tmp_path)


class TestStoreContract:
    def test_load_missing_returns_none(self, store):
        assert store.load("absent") is None

    def test_create_load_round_trip(self, store):
        version = store.create("s1", DOC)
        row = store.load("s1")
        assert row.document == DOC
        assert row.version == version

    def test_create_existing_conflicts(self, store):
        store.create("s1", DOC)
        with pytest.raises(StoreConflictError, match="already exists"):
            store.create("s1", {"other": True})

    def test_racing_creates_of_one_id(self, store, monkeypatch):
        # Slow every read: a create that checked existence with load()
        # and wrote afterwards, outside one lock, lets both racers win.
        load = store.load

        def slow_load(session_id):
            row = load(session_id)
            time.sleep(0.05)
            return row

        monkeypatch.setattr(store, "load", slow_load)
        racers = 4
        barrier = threading.Barrier(racers, timeout=30)
        created, conflicts = [], []

        def create(document):
            barrier.wait()
            try:
                store.create("s1", document)
                created.append(document)
            except StoreConflictError:
                conflicts.append(document)

        threads = [
            threading.Thread(target=create, args=({"n": n},)) for n in range(racers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(created) == 1 and len(conflicts) == racers - 1
        # The winner's document survives; no loser overwrote it.
        assert store.load("s1").document == created[0]

    def test_unconditional_save_moves_version(self, store):
        first = store.create("s1", DOC)
        second = store.save("s1", {"n": 2})
        assert second != first
        assert store.load("s1").document == {"n": 2}

    def test_cas_succeeds_on_current_version(self, store):
        version = store.create("s1", DOC)
        store.save("s1", {"n": 2}, expected_version=version)
        assert store.load("s1").document == {"n": 2}

    def test_cas_rejects_stale_version(self, store):
        stale = store.create("s1", DOC)
        store.save("s1", {"n": 2})  # someone else commits first
        with pytest.raises(StoreConflictError, match="concurrent update"):
            store.save("s1", {"n": 3}, expected_version=stale)
        # The winner's write survives the refused lost update.
        assert store.load("s1").document == {"n": 2}

    def test_cas_rejects_vanished_document(self, store):
        version = store.create("s1", DOC)
        store.delete("s1")
        with pytest.raises(StoreConflictError):
            store.save("s1", {"n": 2}, expected_version=version)

    def test_delete_is_idempotent(self, store):
        store.create("s1", DOC)
        store.delete("s1")
        store.delete("s1")
        assert store.load("s1") is None

    def test_list_ids_sorted(self, store):
        for session_id in ("b", "a", "c"):
            store.create(session_id, DOC)
        assert store.list_ids() == ["a", "b", "c"]

    @pytest.mark.parametrize("bad", ["", ".hidden", "a/b", "../escape", "x" * 101])
    def test_illegal_ids_rejected(self, store, bad):
        with pytest.raises(StoreError, match="illegal session id"):
            store.save(bad, DOC)
        with pytest.raises(StoreError, match="illegal session id"):
            store.load(bad)

    def test_documents_are_isolated_copies(self, store):
        store.create("s1", DOC)
        row = store.load("s1")
        row.document["recipe"]["k"] = 999
        assert store.load("s1").document["recipe"]["k"] == 1


class TestJsonStore:
    def test_document_bytes_are_plain_json_dumps(self, tmp_path):
        store = JsonSessionStore(tmp_path)
        store.create("session", DOC)
        # The on-disk layout is exactly what the pre-service session CLI
        # wrote: ``json.dumps`` with default separators, one file per id.
        assert (tmp_path / "session.json").read_text() == json.dumps(DOC)

    def test_corrupt_document_raises_store_error(self, tmp_path):
        store = JsonSessionStore(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(StoreError, match="corrupt session document"):
            store.load("bad")

    def test_version_is_content_hash(self, tmp_path):
        store = JsonSessionStore(tmp_path)
        version = store.create("s1", DOC)
        assert store.save("s1", DOC) == version  # same bytes, same version
        assert store.save("s1", {"n": 2}) != version

    def test_compare_and_swap_never_decodes_the_stored_document(self, tmp_path, monkeypatch):
        store = JsonSessionStore(tmp_path)
        version = store.create("s1", DOC)

        def no_decoding(*args, **kwargs):
            raise AssertionError("save decoded the stored document")

        monkeypatch.setattr("repro.service.store.json.loads", no_decoding)
        moved = store.save("s1", {"n": 2}, expected_version=version)
        with pytest.raises(StoreConflictError, match="concurrent update"):
            store.save("s1", DOC, expected_version=version)  # stale
        assert store.save("s1", DOC, expected_version=moved) == version

    def test_corrupt_document_is_a_conflict_for_compare_and_swap(self, tmp_path):
        store = JsonSessionStore(tmp_path)
        version = store.create("s1", DOC)
        (tmp_path / "s1.json").write_text("{not json")
        with pytest.raises(StoreConflictError, match="concurrent update"):
            store.save("s1", DOC, expected_version=version)
        with pytest.raises(StoreError, match="corrupt session document"):
            store.load("s1")


def _crash_mid_write(path, mode, token_dir):
    """Child-process body: die at the chosen write-lifecycle event."""
    spec = FaultSpec(token_dir=token_dir, fail_on_call=1, mode="exit")
    calls = [0]

    def hook(event):
        if event == mode:
            calls[0] += 1
            spec.maybe_fire(calls[0])

    store = SqliteSessionStore(path, on_event=hook)
    store.save("s1", {"n": "clobbered"}, expected_version=1)


class TestSqliteStore:
    def test_lost_update_rejected_across_connections(self, tmp_path):
        path = tmp_path / "sessions.db"
        writer_a = SqliteSessionStore(path)
        writer_b = SqliteSessionStore(path)
        version = writer_a.create("s1", DOC)
        assert writer_b.load("s1").version == version
        writer_a.save("s1", {"n": "a"}, expected_version=version)
        with pytest.raises(StoreConflictError, match="concurrent update"):
            writer_b.save("s1", {"n": "b"}, expected_version=version)
        assert writer_a.load("s1").document == {"n": "a"}

    def test_corrupt_document_raises_store_error(self, tmp_path):
        import sqlite3

        path = tmp_path / "sessions.db"
        SqliteSessionStore(path)  # create the schema
        with sqlite3.connect(path) as connection:
            connection.execute(
                "INSERT INTO sessions (id, version, document) VALUES ('bad', 1, '{nope')"
            )
        with pytest.raises(StoreError, match="corrupt session document"):
            SqliteSessionStore(path).load("bad")

    @pytest.mark.parametrize("crash_at", ["begun", "written"])
    def test_crash_mid_write_preserves_previous_document(self, tmp_path, crash_at):
        path = tmp_path / "sessions.db"
        store = SqliteSessionStore(path)
        version = store.create("s1", DOC)
        assert version == 1
        # Kill a writer process between BEGIN/UPDATE and COMMIT: sqlite's
        # journal must roll the transaction back, leaving the previous
        # document and version bit-for-bit intact.
        context = multiprocessing.get_context("spawn")
        child = context.Process(
            target=_crash_mid_write,
            args=(str(path), crash_at, str(tmp_path / f"tokens-{crash_at}")),
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 23  # the injected os._exit, not a crash
        survivor = SqliteSessionStore(path).load("s1")
        assert survivor.version == 1
        assert survivor.document == DOC
        # The database is fully usable afterwards: the CAS the victim
        # held is still available to the next writer.
        assert SqliteSessionStore(path).save("s1", {"n": 2}, expected_version=1) == 2
