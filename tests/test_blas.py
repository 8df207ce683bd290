"""Tests for :mod:`repro.blas`.

The helper changes the process environment and the BLAS library's
settings, so every call runs in a child forked for it, and the test
process keeps its own environment and spin.
"""

import ctypes
import hashlib
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro import blas


def openblas_function(name: str):
    """``name`` from the first loaded OpenBLAS that exports it, or ``None``."""
    for path in blas.loaded_openblas():
        try:
            return getattr(ctypes.CDLL(path), name)
        except (OSError, AttributeError):
            continue
    return None


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="each call runs in a forked child"
)
needs_openblas = pytest.mark.skipif(
    openblas_function("openblas_read_env") is None,
    reason="numpy's BLAS exports no openblas_read_env",
)


def in_child(function):
    """What ``function()`` returns in a forked child."""
    reader, writer = multiprocessing.Pipe(duplex=False)
    pid = os.fork()
    if pid == 0:
        # The child answers and leaves at once: no clean-up of state it
        # inherited from the test process's other threads.
        try:
            writer.send(("ok", function()))
        except Exception as error:
            writer.send(("error", repr(error)))
        finally:
            os._exit(0)
    writer.close()
    try:
        assert reader.poll(60), "the child did not answer in 60 s"
        status, value = reader.recv()
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert status == "ok", value
    return value


def product() -> str:
    """The digest of a product large enough to run threaded."""
    matrix = np.random.default_rng(0).random((300, 300))
    return hashlib.sha256((matrix @ matrix).tobytes()).hexdigest()


@needs_fork
@needs_openblas
class TestOpenBLAS:
    def test_the_call_sets_the_shortest_spin(self):
        timeout = openblas_function("openblas_thread_timeout")
        before = timeout(), os.environ.get("OPENBLAS_THREAD_TIMEOUT")

        def child():
            os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
            read = blas.quiet_idle_threads()
            return read, timeout(), os.environ["OPENBLAS_THREAD_TIMEOUT"], product()

        read, spin, setting, child_product = in_child(child)
        assert read >= 1
        assert (spin, setting) == (4, "4")
        # The thread count is untouched, so the product rounds as before.
        assert child_product == product()
        assert (timeout(), os.environ.get("OPENBLAS_THREAD_TIMEOUT")) == before

    def test_a_user_setting_is_left_alone(self):
        timeout = openblas_function("openblas_thread_timeout")
        before = timeout()

        def child():
            os.environ["OPENBLAS_THREAD_TIMEOUT"] = "12"
            return blas.quiet_idle_threads(), timeout(), os.environ["OPENBLAS_THREAD_TIMEOUT"]

        assert in_child(child) == (0, before, "12")


@needs_fork
def test_without_an_openblas_the_call_does_nothing():
    def child():
        os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)
        # A library without the symbol, and a path that does not load.
        blas.loaded_openblas = lambda: ["libm.so.6", "/nonexistent/libopenblas.so"]
        return blas.quiet_idle_threads(), "OPENBLAS_THREAD_TIMEOUT" in os.environ

    assert in_child(child) == (0, False)
