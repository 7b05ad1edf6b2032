"""Locate the eigengrad sources of this checkout and describe the machine.

The benchmark always measures the package under ``src/`` next to it, never
an installed copy, so a checkout without ``src/eigengrad`` is an error.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


INIT = os.path.join(SRC, "eigengrad", "__init__.py")


def check_sources():
    """Exit with code 2 unless ``<checkout>/src/eigengrad`` exists."""
    if not os.path.isfile(INIT):
        _fail(f"no eigengrad sources at {INIT}")


def load_eigengrad():
    """Import eigengrad from ``<checkout>/src``; exit with code 2 if absent."""
    check_sources()
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    eg = importlib.import_module("eigengrad")
    if os.path.realpath(eg.__file__) != os.path.realpath(INIT):
        _fail(f"imported eigengrad from {eg.__file__}, expected {INIT}")
    return eg


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def openblas_threads():
    """Thread count of every OpenBLAS loaded in this process, by library file.

    numpy and scipy each ship their own OpenBLAS with its own thread pool;
    both are listed. Read through the libraries' own getters via ctypes.
    """
    paths = set()
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        for line in fh:
            fields = line.split(None, 5)
            if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
                paths.add(fields[5].strip())
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads[os.path.basename(path)] = getter()
                break
    return threads


def environment():
    """Core count, library versions and BLAS threading of this process."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    blas_vars = {k: v for k, v in sorted(os.environ.items())
                 if k.endswith("_NUM_THREADS")
                 or k.startswith(("OPENBLAS", "SCIPY_OPENBLAS", "MKL", "OMP_", "GOTO", "BLIS"))}
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": blas_vars,
        "openblas_threads": openblas_threads(),
    }
