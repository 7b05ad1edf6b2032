"""scipy's own OpenBLAS held at one thread around a block of LAPACK calls.

numpy's and scipy's pip wheels each vendor an OpenBLAS with its own thread
pool. Each pool's workers keep spinning for about 0.1 s after its last call,
and on 2 cores the other pool's work waits on them: a two-thread ``dsytrd``
at n = 1000 took 150 ms right after a 1000 x 1000 numpy product and 43 ms
0.2 s later. On one thread, scipy's pool never wakes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import scipy
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

# OpenBLAS's thread-count functions as its wheel builds spell them: prefixed
# (scipy-openblas), ILP64-suffixed and plain
SPELLINGS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
             "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.cache
def scipy_openblas():
    """(get, set) thread-count functions of the OpenBLAS scipy's wheel vendors
    and has loaded, or None: scipy has no OpenBLAS of its own (it shares
    numpy's or the system's BLAS), or it exports no getter and setter."""
    root = os.path.dirname(scipy.__file__)
    paths = (glob.glob(os.path.join(root + ".libs", "*openblas*"))
             + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    for path in sorted(paths):
        try:    # binds a library already loaded, never loads a second copy
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for spelling in SPELLINGS:
            get = getattr(lib, spelling.format("get"), None)
            set_ = getattr(lib, spelling.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


class _OneThread:
    """Context manager factory: ``lookup()``'s OpenBLAS runs on one thread while
    any scope is open, in any thread. The first scope to open saves its count
    and the last to close restores it, also when its body raised. Where
    ``lookup()`` finds nothing, a scope changes nothing."""

    def __init__(self, lookup):
        self.lookup, self.lock, self.open, self.saved = lookup, threading.Lock(), 0, 0

    @contextlib.contextmanager
    def __call__(self):
        with self.lock:
            threads = self.lookup()
            if threads is not None and not self.open:
                self.saved = threads[0]()
                threads[1](1)
            self.open += 1
        try:
            yield
        finally:
            with self.lock:
                self.open -= 1
                if threads is not None and not self.open:
                    threads[1](self.saved)


scipy_one_thread = _OneThread(scipy_openblas)
