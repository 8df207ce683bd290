"""Control of the BLAS library numpy loaded.

numpy's bundled OpenBLAS starts one helper thread per CPU, and after
every threaded product each helper polls for more work for 2^28 cycles
(about 0.1 s) before it sleeps.  A process that computes alone loses
nothing by it, but several forked queue workers on one host each spin
their helpers on the CPUs the other workers need.
"""

from __future__ import annotations

import ctypes
import os

#: OpenBLAS's shortest idle spin, as the exponent it reads: 2^4 cycles.
QUIET_THREAD_TIMEOUT = "4"


def loaded_openblas() -> "list[str]":
    """Paths of the loaded shared libraries that may be an OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            rows = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {row[5].strip() for row in rows if len(row) == 6}
    return sorted(path for path in paths if ".so" in path and "blas" in path.lower())


def quiet_idle_threads() -> int:
    """Make idle OpenBLAS helper threads sleep at once; return how many
    libraries re-read their settings.

    Sets ``OPENBLAS_THREAD_TIMEOUT`` to its minimum, then has every
    loaded library that exports ``openblas_read_env`` read it again.
    Helpers started after the call (a forked child starts new ones at
    its first threaded product) then wait 2^4 cycles for work instead
    of 2^28.  The thread count is untouched, so every product is split
    and rounded as before.  A user's own ``OPENBLAS_THREAD_TIMEOUT``
    wins: the call then does nothing, as it does without an OpenBLAS
    (MKL, Accelerate) or without ``/proc``.
    """
    if "OPENBLAS_THREAD_TIMEOUT" in os.environ:
        return 0
    readers = []
    for path in loaded_openblas():
        try:
            readers.append(ctypes.CDLL(path).openblas_read_env)
        except (OSError, AttributeError):
            continue
    if readers:
        os.environ["OPENBLAS_THREAD_TIMEOUT"] = QUIET_THREAD_TIMEOUT
    for read_env in readers:
        read_env.argtypes, read_env.restype = [], None
        read_env()
    return len(readers)
