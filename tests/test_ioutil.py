"""Tests for atomic text writes, including crash fault injection, and
for the array codec of session snapshots.

The distributed work queue leans on :func:`atomic_write_text` for its
crash-equivalence story (commit markers must never vouch for bytes that
are not on disk), so beyond the happy paths these tests tear the write
apart on purpose: a writer crashing after flushing half its payload, a
SIGKILLed writer process, concurrent writers racing one destination, and
the fsync/rename ordering of ``durable=True``.

The codec is an untrusted boundary (stored sessions are read back from
disk and from other machines): every float64 bit pattern must survive
it, and every malformed value must be the caller's error, naming the
field.  So is every JSON file the program reads: a file that is not
UTF-8 must be the reader's typed error, as a file that is not JSON is,
and so is JSON nested past the parser's recursion limit, wherever the
program parses it.
"""

import json
import multiprocessing
import os
import sqlite3
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import (
    CheckpointError,
    DataError,
    QueueError,
    SessionError,
    SpecError,
    StoreError,
)
from repro.experiments import ExperimentConfig
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.distributed import CellQueue
from repro.ioutil import (
    atomic_write_text,
    decode_array,
    encode_array,
    fsync_directory,
)
from repro.persistence import load_lhs_ranker
from repro.service.store import JsonSessionStore, SqliteSessionStore
from repro.specs import ExperimentSpec, SweepSpec

#: A JSON document with a byte that is not UTF-8 in it.
UNDECODABLE = b'{"format": "repro.experiment", "name": "\xff"}'

#: An experiment document whose dataset nests past any recursion limit.
TOO_DEEP = (
    b'{"format": "repro.experiment", "dataset": '
    + b"[" * 100_000 + b"]" * 100_000 + b"}"
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash tests fork real writer processes",
)


class _PartialWriteHandle:
    """A file handle that flushes half the payload, then fails or dies."""

    def __init__(self, inner, crash):
        self._inner = inner
        self._crash = crash

    def write(self, text):
        self._inner.write(text[: len(text) // 2])
        self._inner.flush()
        self._crash()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._inner.close()
        return False

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _install_partial_writes(crash):
    """Route ``os.fdopen`` through :class:`_PartialWriteHandle`."""
    real_fdopen = os.fdopen

    def partial_fdopen(fd, *args, **kwargs):
        return _PartialWriteHandle(real_fdopen(fd, *args, **kwargs), crash)

    os.fdopen = partial_fdopen
    return real_fdopen


def _sigkilled_torn_writer(path):
    """Child entry point: die (``os._exit``) after a half-flushed write."""
    _install_partial_writes(lambda: os._exit(23))
    atomic_write_text(path, "replacement-" * 20_000, durable=True)


def _hammering_writer(path, marker, writes):
    """Child entry point: repeatedly write a full one-character payload."""
    for _ in range(writes):
        atomic_write_text(path, marker * 8192)


class TestAtomicWriteText:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"

    def test_overwrites_existing_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "out.json", "payload")
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["out.json"]

    def test_failed_write_preserves_original_and_cleans_up(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("precious")

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(target, "lost")
        assert target.read_text() == "precious"
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["out.json"]

    def test_accepts_str_path(self, tmp_path):
        atomic_write_text(str(tmp_path / "out.txt"), "x")
        assert (tmp_path / "out.txt").read_text() == "x"


class TestTornWrites:
    """A crash mid-write must never leave a torn destination file."""

    def test_partial_write_then_error_preserves_original(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("precious")

        def crash():
            raise OSError("injected: power loss mid-write")

        real_fdopen = os.fdopen
        monkeypatch.setattr(
            os, "fdopen",
            lambda fd, *args, **kwargs: _PartialWriteHandle(
                real_fdopen(fd, *args, **kwargs), crash
            ),
        )
        with pytest.raises(OSError, match="power loss"):
            atomic_write_text(target, "replacement-payload")
        # The destination is the old complete content — never half new —
        # and the aborted temp file was cleaned up.
        assert target.read_text() == "precious"
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["out.json"]

    @needs_fork
    def test_sigkilled_writer_leaves_no_torn_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("precious")
        process = multiprocessing.get_context("fork").Process(
            target=_sigkilled_torn_writer, args=(target,), daemon=True
        )
        process.start()
        process.join(timeout=60)
        assert process.exitcode == 23  # really died mid-write
        # The half-written bytes live (at most) in a stray temp file; the
        # destination still reads as the old complete document.
        assert target.read_text() == "precious"
        for stray in tmp_path.iterdir():
            if stray != target:
                assert stray.name.endswith(".tmp")

    @needs_fork
    def test_concurrent_writers_never_interleave(self, tmp_path):
        """Readers racing N writers always see one complete payload."""
        target = tmp_path / "out.json"
        atomic_write_text(target, "0" * 8192)
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(
                target=_hammering_writer, args=(target, marker, 40), daemon=True
            )
            for marker in "abcd"
        ]
        for writer in writers:
            writer.start()
        observed = set()
        while any(writer.is_alive() for writer in writers):
            content = target.read_text()
            # Complete payload from exactly one writer, never a mix.
            assert len(content) == 8192
            assert len(set(content)) == 1
            observed.add(content[0])
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        assert observed - set("0abcd") == set()


class TestDurableOrdering:
    """``durable=True`` must fsync content before the rename publishes it."""

    def test_fsync_then_rename_then_directory_fsync(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (events.append("fsync-file"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (events.append("rename"), real_replace(src, dst))[1],
        )
        monkeypatch.setattr(
            "repro.ioutil.fsync_directory",
            lambda directory: events.append("fsync-dir"),
        )
        atomic_write_text(tmp_path / "out.json", "payload", durable=True)
        assert events == ["fsync-file", "rename", "fsync-dir"]
        assert (tmp_path / "out.json").read_text() == "payload"

    def test_non_durable_write_skips_fsync(self, tmp_path, monkeypatch):
        events = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        atomic_write_text(tmp_path / "out.json", "payload")
        assert events == []

    def test_fsync_directory_tolerates_unsyncable_paths(self, tmp_path):
        fsync_directory(tmp_path)  # a real directory: no error
        fsync_directory(tmp_path / "does-not-exist")  # silently a no-op


#: float64 arrays of 0-3 dimensions, empty ones included, over every
#: kind of value: NaN, +-inf, -0.0 and subnormals.
FLOAT_ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)

#: Any JSON value, and objects shaped like an encoded array.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20,
)
ENCODED_LIKE = st.fixed_dictionaries({
    "dtype": st.sampled_from(["<f8", "<f4", ">f8", 8]),
    "shape": st.lists(st.integers(-2, 4) | st.booleans() | st.floats(), max_size=3)
    | JSON_VALUES,
    "data": st.text(alphabet="AB8Q+/=!é", max_size=24) | JSON_VALUES,
})

#: A valid encoding of ``[1.0, 2.0]`` and ways to damage it.
ONE_TWO = {"dtype": "<f8", "shape": [2], "data": "AAAAAAAA8D8AAAAAAAAAQA=="}
MALFORMED_ARRAYS = {
    "bad-base64-character": {**ONE_TWO, "data": "!" + ONE_TWO["data"][1:]},
    "non-ascii-data": {**ONE_TWO, "data": ONE_TWO["data"] + "é"},
    "truncated-data": {**ONE_TWO, "data": ONE_TWO["data"][:12]},
    "short-of-the-shape": {**ONE_TWO, "shape": [3]},
    "float32": {**ONE_TWO, "dtype": "<f4"},
    "big-endian": {**ONE_TWO, "dtype": ">f8"},
    "negative-dimension": {**ONE_TWO, "shape": [-2]},
    "float-dimension": {**ONE_TWO, "shape": [2.0]},
    "bool-dimension": {**ONE_TWO, "shape": [True, 2]},
    "shape-not-a-list": {**ONE_TWO, "shape": 2},
    "data-not-a-string": {**ONE_TWO, "data": [1.0, 2.0]},
    "no-data": {"dtype": "<f8", "shape": [2]},
    "too-many-dimensions": {"dtype": "<f8", "shape": [1] * 65, "data": "AAAAAAAA8D8="},
    "ragged-list": [[0.0], [0.0, 1.0]],
    "string-in-list": [0.0, "x"],
    "numeric-string-in-list": ["1.5"],
    "null-in-list": [0.0, None],
    "bools": [True, False],
    "object-in-list": [{}],
    "overflowing-int": [10**400],
    "string": "x",
    "null": None,
}


class TestArrayCodec:
    @given(FLOAT_ARRAYS)
    def test_round_trip_keeps_every_bit(self, array):
        decoded = decode_array(
            json.loads(json.dumps(encode_array(array))), SessionError, "field"
        )
        assert decoded.dtype == np.float64 and decoded.dtype.isnative
        assert decoded.shape == array.shape
        assert decoded.tobytes() == array.tobytes()
        assert decoded.flags.writeable

    def test_encoding_is_pinned(self):
        encoded = encode_array(np.array([[1.0, -0.0], [np.inf, 0.5]]))
        assert encoded == {
            "dtype": "<f8",
            "shape": [2, 2],
            "data": "AAAAAAAA8D8AAAAAAAAAgAAAAAAAAPB/AAAAAAAA4D8=",
        }

    def test_non_contiguous_and_other_dtypes_encode_as_float64(self):
        matrix = np.arange(12, dtype=np.int32).reshape(3, 4)
        decoded = decode_array(encode_array(matrix.T), SessionError, "field")
        assert decoded.tobytes() == matrix.T.astype(np.float64).tobytes()

    def test_nested_list_decodes_to_a_fresh_array(self):
        rows = [[1.0, -0.0], [2.5, 3.0]]
        decoded = decode_array(rows, SessionError, "field")
        assert decoded.tolist() == rows and decoded.flags.writeable
        assert decode_array([], SessionError, "field").shape == (0,)

    def test_decoded_array_owns_its_memory(self):
        encoded = encode_array(np.zeros(3))
        first = decode_array(encoded, SessionError, "field")
        first[0] = 1.0
        assert decode_array(encoded, SessionError, "field")[0] == 0.0

    @given(JSON_VALUES | ENCODED_LIKE)
    def test_any_json_value_decodes_or_is_the_callers_error(self, value):
        try:
            decoded = decode_array(value, SessionError, "field")
        except SessionError:
            return
        assert decoded.dtype == np.float64 and decoded.flags.writeable

    @pytest.mark.parametrize("case", list(MALFORMED_ARRAYS))
    def test_malformed_value_is_the_callers_error(self, case):
        with pytest.raises(SessionError, match=r"^history\.scores "):
            decode_array(MALFORMED_ARRAYS[case], SessionError, "history.scores")


def _checkpoint_store(directory):
    return CheckpointStore(directory, ExperimentConfig())


#: Every reader of a JSON file: (the file it reads in a directory, how it
#: reads it, the error it raises).
JSON_READERS = {
    "experiment": (
        lambda directory: directory / "experiment.json",
        ExperimentSpec.from_file,
        SpecError,
    ),
    "sweep": (lambda directory: directory / "sweep.json", SweepSpec.from_file, SpecError),
    "ranker": (lambda directory: directory / "ranker.json", load_lhs_ranker, DataError),
    "checkpoint": (
        lambda directory: _checkpoint_store(directory).cell_path("entropy", 0),
        lambda path: _checkpoint_store(path.parent).load("entropy", 0, seed=0),
        CheckpointError,
    ),
    "session snapshot": (
        lambda directory: _checkpoint_store(directory).session_path("entropy", 0),
        lambda path: _checkpoint_store(path.parent).load_session("entropy", 0, seed=0),
        CheckpointError,
    ),
    "queue envelope": (
        lambda directory: directory / "queue.json",
        lambda path: CellQueue(path.parent),
        QueueError,
    ),
}


@pytest.mark.parametrize("reader", list(JSON_READERS))
def test_bytes_that_are_not_utf8_are_the_readers_error(tmp_path, reader):
    where, read, error_cls = JSON_READERS[reader]
    path = where(tmp_path)
    path.write_bytes(UNDECODABLE)
    with pytest.raises(error_cls, match="can't decode byte 0xff") as error:
        read(path)
    assert str(path) in str(error.value)
    assert isinstance(error.value.__cause__, UnicodeDecodeError)


def _write_sqlite_document(path, data):
    SqliteSessionStore(path).create("s1", {})
    with closing(sqlite3.connect(path)) as connection, connection:
        connection.execute("UPDATE sessions SET document = ?", (data.decode("utf-8"),))


#: Every reader of stored JSON text: (where the text lives in a directory,
#: how it gets there, how it is read, the error it raises).
STORED_JSON_READERS = {
    **{
        name: (where, lambda path, data: path.write_bytes(data), read, error_cls)
        for name, (where, read, error_cls) in JSON_READERS.items()
    },
    "json store": (
        lambda directory: JsonSessionStore(directory).path("s1"),
        lambda path, data: path.write_bytes(data),
        lambda path: JsonSessionStore(path.parent).load("s1"),
        StoreError,
    ),
    "sqlite store": (
        lambda directory: directory / "sessions.db",
        _write_sqlite_document,
        lambda path: SqliteSessionStore(path).load("s1"),
        StoreError,
    ),
}


@pytest.mark.parametrize("reader", list(STORED_JSON_READERS))
def test_json_nested_past_the_recursion_limit_is_the_readers_error(tmp_path, reader):
    where, write, read, error_cls = STORED_JSON_READERS[reader]
    path = where(tmp_path)
    write(path, TOO_DEEP)
    with pytest.raises(error_cls, match="maximum recursion depth exceeded") as error:
        read(path)
    assert str(path) in str(error.value)
    assert isinstance(error.value.__cause__, RecursionError)
