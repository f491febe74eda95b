"""OpenBLAS thread count of the process: one thread for a CLI run.

LAPACK's eig and inv round differently at one and at two OpenBLAS threads,
so with one thread per core the last digits of a solve would follow the
machine's core count. weakdrive.cli.main therefore runs every task inside
one_thread(). An OpenBLAS that is already loaded is switched through its
*_set_num_threads symbol; one loaded during the run (scipy.linalg's, which
only the Schur fallback of the pair solve loads) reads
OPENBLAS_NUM_THREADS=1 when it loads.

The lookup never searches the file system. It reopens, without loading
anything new (RTLD_NOLOAD), the imported extension modules that link an
OpenBLAS, and asks the dynamic linker for the thread symbols among their
dependencies: ~0.15 ms cold. A process whose BLAS is not an OpenBLAS linked from
these modules finds nothing and runs as it is.
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
