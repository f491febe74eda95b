"""OpenBLAS thread count of the process, one thread for a CLI run, and the
idle timeout of its thread pool.

LAPACK's eig and inv round differently at one and at two OpenBLAS threads,
so with one thread per core the last digits of a solve would follow the
machine's core count. weakdrive.cli.main therefore runs every task inside
one_thread(). An OpenBLAS that is already loaded is switched through its
*_set_num_threads symbol; one loaded during the run (scipy.linalg's, which
only exact.propagate_truncated loads) reads OPENBLAS_NUM_THREADS=1 when it
loads.

The lookup never searches the file system. It reopens, without loading
anything new (RTLD_NOLOAD), the imported extension modules that link an
OpenBLAS, and asks the dynamic linker for the thread symbols among their
dependencies: ~0.15 ms cold. A process whose BLAS is not an OpenBLAS linked from
these modules finds nothing and runs as it is.

Idle timeout: importing this module sets OPENBLAS_THREAD_TIMEOUT=20, unless
the environment already sets it (a value the user set wins). OpenBLAS reads
it once, when it loads, as the k of the 2^k CPU cycles an idle pool thread
spins before it sleeps. At its default k = 28 (~0.1 s) the pool thread of a
process started with OPENBLAS_NUM_THREADS=2 spins 90-130 ms of CPU after
numpy's import, more than a short CLI task takes, and the task itself runs
on one thread; at k = 20 (~0.3-0.5 ms) that spin is gone, so each process
saves those 90-130 ms of CPU (BENCH_idle-spin.json). 20 sits inside the
range k = 4 to 22 where 200 back-to-back two-thread 160 x 160 complex
products keep their wall time, within run-to-run noise, while the pool's
CPU halves; at k = 26 the start-up spin is back. weakdrive/__init__.py
imports this module before anything that imports numpy. The default takes
effect only when weakdrive is what loads OpenBLAS: in a process that
imported numpy first, OpenBLAS has read its environment already and
nothing changes but the variable that child processes inherit.
"""

from __future__ import annotations

import ctypes
import os
import sys
from contextlib import contextmanager
from typing import Optional

# extension modules linking numpy's OpenBLAS (numpy 2 and numpy 1 layout)
# and scipy.linalg's; only modules already imported are looked at
_MODULES = (
    "numpy._core._multiarray_umath",
    "numpy.core._multiarray_umath",
    "scipy.linalg._flapack",
)
# symbol prefix and suffix of the numpy wheel's 64-bit-integer build, the
# scipy wheel's build, and plain OpenBLAS builds
_SYMBOLS = (
    ("scipy_openblas", "64_"),
    ("scipy_openblas", ""),
    ("openblas", "64_"),
    ("openblas", ""),
)
ENV = "OPENBLAS_NUM_THREADS"
TIMEOUT_ENV = "OPENBLAS_THREAD_TIMEOUT"
IDLE_TIMEOUT = "20"

os.environ.setdefault(TIMEOUT_ENV, IDLE_TIMEOUT)


def _libraries() -> list:
    """(get, set) thread-count functions of each distinct OpenBLAS linked
    by an imported module of _MODULES."""
    found = {}
    for name in _MODULES:
        path = getattr(sys.modules.get(name), "__file__", None)
        if path is None:
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            set_n = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            get_n = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if set_n is not None and get_n is not None:
                set_n.argtypes, set_n.restype = [ctypes.c_int], None
                get_n.argtypes, get_n.restype = [], ctypes.c_int
                found.setdefault(ctypes.cast(set_n, ctypes.c_void_p).value, (get_n, set_n))
                break
    return list(found.values())


def threads() -> Optional[int]:
    """Largest thread count over the OpenBLAS libraries found, or None."""
    counts = [get_n() for get_n, _ in _libraries()]
    return max(counts) if counts else None


@contextmanager
def one_thread():
    """Run the body with one thread in every OpenBLAS of the process, then
    restore OPENBLAS_NUM_THREADS and the thread count of each library found
    at entry. A library loaded inside the body keeps its one thread."""
    libs = _libraries()
    before = [get_n() for get_n, _ in libs]
    env = os.environ.get(ENV)
    os.environ[ENV] = "1"
    for _, set_n in libs:
        set_n(1)
    try:
        yield
    finally:
        for (_, set_n), n in zip(libs, before):
            set_n(n)
        if env is None:
            os.environ.pop(ENV, None)
        else:
            os.environ[ENV] = env
