"""Crash-safe filesystem helpers.

Experiment checkpoints and saved rankers are what a run resumes from, so
a crash in the middle of writing one must never leave a truncated JSON
document behind.  :func:`atomic_write_text` provides the standard
POSIX-safe recipe: write the full content to a temporary file *in the
target directory* (so the rename cannot cross filesystems), then
``os.replace`` it over the destination in one atomic step.  Readers see
either the old complete file or the new complete file, never a partial
write.

``durable=True`` additionally fsyncs the temporary file *before* the
rename and the containing directory *after* it — the ordering that makes
the write survive a machine crash, not just a process crash.  The
distributed work queue uses it for commit markers: a ``done`` marker
must never hit the disk before the checkpoint bytes it vouches for.

:func:`parse_json` is the one JSON parser of untrusted text (files,
stored documents, request bodies), and :func:`read_json` the one reader
of JSON files: whatever is wrong with the text, they raise the caller's
typed error.

:func:`encode_array` / :func:`decode_array` are the array codec of
session snapshots: a float64 array travels as base64 of its
little-endian bytes instead of a nested list of printed floats.
"""

from __future__ import annotations

import base64
import json
import math
import os
import reprlib
import tempfile
from pathlib import Path

import numpy as np


def fsync_directory(directory: "str | Path") -> None:
    """Flush a directory's entry table to disk (no-op where unsupported).

    After ``os.replace`` the *file* content is safe, but the rename
    itself lives in the directory; fsyncing the directory pins the
    ordering "content durable, then name visible" across a power loss.
    Platforms that cannot fsync a directory (Windows) simply skip it.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: "str | Path", text: str, durable: bool = False) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file is created next to ``path`` and renamed over it
    only after the content has been fully written and the handle closed,
    so a crash mid-write leaves the previous file (if any) untouched.

    With ``durable=True`` the temp file is fsynced before the rename and
    the parent directory after it, so the fsync/rename ordering holds
    even across a machine crash: the name never points at content that
    has not reached the disk.
    """
    path = Path(path)
    handle_fd, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle_fd, "w") as handle:
            handle.write(text)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_name, path)
        if durable:
            fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def atomic_write_json(path: "str | Path", payload: dict, durable: bool = False) -> None:
    """Serialise ``payload`` and write it via :func:`atomic_write_text`."""
    atomic_write_text(path, json.dumps(payload), durable=durable)


def parse_json(text: "str | bytes", error_cls: type[Exception], source: str):
    """The JSON document in ``text``; bytes are read as UTF-8.

    Bytes that are not UTF-8, text that is not JSON, and JSON nested
    deeper than the parser can recurse raise ``error_cls`` (the caller's
    domain error) as ``"<source>: <reason>"``, with the original error as
    its ``__cause__``.
    """
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as error:  # ValueError: bad UTF-8 or bad JSON
        raise error_cls(f"{source}: {error}") from error


def read_json(path: "str | Path", error_cls: type[Exception], message: str):
    """The JSON document in the file at ``path``, read as UTF-8.

    A file that cannot be read, or whose bytes :func:`parse_json` rejects,
    raises ``error_cls`` (the caller's domain error) as ``"<message>
    <path>: <reason>"``, with the original error as its ``__cause__``.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as error:
        raise error_cls(f"{message} {path}: {error}") from error
    return parse_json(data, error_cls, f"{message} {path}")


def validate_envelope(
    payload,
    expected_format: str,
    expected_version: "int | tuple[int, ...]",
    error_cls: type[Exception],
    source: str,
) -> dict:
    """Check a decoded document's ``format``/``version`` envelope.

    All persistent artifacts of this package (rankers, checkpoints,
    session snapshots, stored service sessions) share the same envelope:
    a JSON object with ``format`` and ``version`` keys (see
    :mod:`repro.formats`).  This helper centralises the two payload-side
    failure modes — wrong document kind, unsupported version — raising
    ``error_cls`` (the caller's domain error) with ``source`` naming
    where the document came from (a path, an endpoint, "session
    snapshot", ...).  ``expected_version`` is one version or a tuple of
    the versions a reader accepts.  Returns the payload unchanged on
    success.
    """
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise error_cls(f"{source} is not a {expected_format!r} document")
    versions = expected_version if isinstance(expected_version, tuple) else (expected_version,)
    if payload.get("version") not in versions:
        raise error_cls(
            f"unsupported {expected_format!r} version {payload.get('version')!r} "
            f"in {source} (expected {' or '.join(map(str, versions))})"
        )
    return payload


def is_int(value) -> bool:
    """Whether ``value`` is an integer (numpy integers included), not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether ``value`` is a real number (numpy numbers included), not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    )


#: The one dtype the array codec carries: little-endian float64.
ARRAY_DTYPE = "<f8"


def encode_array(array) -> dict:
    """``array`` as ``{"dtype": "<f8", "shape": [...], "data": <base64>}``.

    The data is base64 of the little-endian float64 bytes, so every bit
    pattern (NaN, -0.0, subnormals) round-trips, as the ``repr`` of a
    nested list does, at a fraction of the cost of printing each float.
    """
    array = np.asarray(array, dtype=ARRAY_DTYPE)
    data = base64.b64encode(array.tobytes()).decode("ascii")
    return {"dtype": ARRAY_DTYPE, "shape": list(array.shape), "data": data}


def encoded_shape(value) -> "list[int] | None":
    """The shape an encoded array declares, or ``None`` if ``value`` is not
    an encoded float64 array.  Its ``data`` is not decoded."""
    if not isinstance(value, dict) or value.get("dtype") != ARRAY_DTYPE:
        return None
    shape = value.get("shape")
    if not isinstance(value.get("data"), str) or not isinstance(shape, list):
        return None
    return shape if all(is_int(size) and size >= 0 for size in shape) else None


def decode_array(value, error_cls: type[Exception], field: str) -> np.ndarray:
    """A fresh, writable, native float64 array from :func:`encode_array`
    output or from a nested list (the form results and rankers keep).

    Raises ``error_cls`` naming ``field`` for anything else: bad base64,
    data that does not fill the shape, another dtype, a negative or
    non-integer dimension, a ragged list or one holding anything but
    numbers (a ``null`` would otherwise read as NaN).
    """
    if isinstance(value, list):
        try:
            array = np.array(value)
        except ValueError as error:  # ragged, or deeper than numpy allows
            raise error_cls(f"{field} is not a float array: {error}") from None
        if array.dtype.kind not in "fiu":  # null, text, bools, objects, huge ints
            raise error_cls(f"{field} is not a float array: it holds {array.dtype} values")
        return array.astype(np.float64, copy=False)
    shape = encoded_shape(value)
    if shape is None:
        raise error_cls(
            f"{field} must be a list or an encoded {ARRAY_DTYPE!r} array, "
            f"got {reprlib.repr(value)}"
        )
    try:
        raw = base64.b64decode(value["data"], validate=True)
    except ValueError as error:  # binascii.Error, or non-ASCII text
        raise error_cls(f"{field} has malformed base64 data: {error}") from None
    needed = 8 * math.prod(shape)
    if len(raw) != needed:
        raise error_cls(f"{field} holds {len(raw)} bytes but shape {shape} needs {needed}")
    try:
        return np.frombuffer(raw, dtype=ARRAY_DTYPE).astype(np.float64).reshape(shape)
    except ValueError as error:  # more dimensions than numpy supports
        raise error_cls(f"{field} has an unsupported shape {shape}: {error}") from None


def check_fields(document: dict, rules: dict, error_cls: type[Exception], source: str) -> None:
    """Raise ``error_cls`` naming the first field of ``document`` that breaks its rule.

    ``rules`` maps a dotted field path (``"lease.ttl"``) to ``(rule,
    test)``; an absent field reads as ``None``.
    """
    for path, (rule, valid) in rules.items():
        value = document
        for key in path.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if not valid(value):
            raise error_cls(f"{source}: {path} must be {rule}, got {reprlib.repr(value)}")


def check_fingerprint(
    payload: dict,
    expected: dict,
    error_cls: type[Exception],
    source: str,
    hint: str,
) -> None:
    """Refuse a document whose run fingerprint does not match ``expected``.

    Checkpoints and session snapshots embed a fingerprint of the run
    that wrote them (strategy, repeat, seed, config, resolved specs);
    resuming must never silently mix artifacts from different runs, so a
    mismatch raises ``error_cls`` describing both sides.  ``source``
    names the stale document ("checkpoint <path>", "session snapshot
    <path>"); ``hint`` tells the operator how to recover.
    """
    actual = {key: payload.get(key) for key in expected}
    if actual != expected:
        raise error_cls(
            f"stale {source}: it was written by a different run "
            f"(expected {expected}, found {actual}); {hint}"
        )

