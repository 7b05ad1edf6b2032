"""The LAPACK the dense reduction runs on, and the OpenBLAS pools under it.

numpy's and scipy's pip wheels each vendor an OpenBLAS with its own thread
pool. Each pool's workers keep spinning for about 0.1 s after its last call,
and on 2 cores the other pool's work waits on them: a two-thread ``dsytrd``
at n = 1000 took 150 ms right after a 1000 x 1000 numpy product and 43 ms
0.2 s later. On one thread, scipy's pool never wakes.

numpy's OpenBLAS also exports the full LAPACK, ILP64. :func:`numpy_lapack`
binds the few routines the reduction calls there, on the pool whose workers
the caller's numpy products keep awake, and :data:`SCIPY_LAPACK` gives
scipy's wrappers the same signatures; :func:`reduction_lapack` picks one.

scipy is imported on the first dense call, through :func:`scipy_linalg`, and
not at import: the matrix-free route needs numpy alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np

# OpenBLAS's thread-count functions as its wheel builds spell them: prefixed
# (scipy-openblas), ILP64-suffixed and plain
SPELLINGS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
             "openblas_{}_num_threads64_", "openblas_{}_num_threads")
# the ILP64 LAPACK and BLAS symbols of numpy's wheel OpenBLAS: scipy-openblas64
# (numpy 2) and openblas64_ (numpy 1.2x); an LP64 build matches neither
LAPACK_SPELLINGS = ("scipy_{}_64_", "{}_64_")
# from this order on a reduction runs on numpy's pool. Measured on a 2-core
# machine (numpy 2.4.6, scipy 1.17.1), eig_dense + vjp right after a numpy
# product, medians: scipy's one thread was 5-10% faster at n = 80-200, and
# the routes were level within run-to-run spread at n = 300-384. At n = 80,
# numpy's threaded LAPACK also stalled in 2 of 7 fresh processes, for the
# whole process: 23 ms a call against scipy's 1.6 ms. Single slow calls of
# eig_dense (3-13 ms at n = 6-100, a numpy product before every third call)
# came on both routes alike. numpy's route uses all of its pool's threads,
# so with more cores both the crossover and the stall may move: neither has
# been measured there, and the cutoff should be re-measured before it is
# trusted on such a machine
NUMPY_LAPACK_MIN_N = 384


def _vendored(package):
    """ctypes handles of the OpenBLAS libraries ``package``'s wheel vendors
    and the process has loaded."""
    root = os.path.dirname(package.__file__)
    paths = (glob.glob(os.path.join(root + ".libs", "*openblas*"))
             + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    libs = []
    for path in sorted(paths):
        try:    # binds a library already loaded, never loads a second copy
            libs.append(ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0)))
        except OSError:
            continue
    return libs


def scipy_linalg():
    """scipy.linalg, imported on the first call, which loads scipy's OpenBLAS."""
    # deferred: the import costs about 0.2 s and 27 MB (scipy 1.17.1), which the
    # matrix-free route, numpy alone, should not pay
    import scipy.linalg
    return scipy.linalg


@functools.cache
def scipy_openblas():
    """(get, set) thread-count functions of the OpenBLAS scipy's wheel vendors,
    loaded first, or None: scipy has no OpenBLAS of its own (it shares
    numpy's or the system's BLAS), or it exports no getter and setter."""
    scipy_linalg()    # before the lookup, which binds only a library already loaded
    import scipy
    for lib in _vendored(scipy):
        for spelling in SPELLINGS:
            get = getattr(lib, spelling.format("get"), None)
            set_ = getattr(lib, spelling.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@functools.cache
def numpy_lapack():
    """:class:`NumpyLapack` on the OpenBLAS numpy's wheel vendors and has
    loaded, or None: numpy has no OpenBLAS of its own, or it exports the
    routines in no ILP64 spelling."""
    for lib in _vendored(np):
        for spelling in LAPACK_SPELLINGS:
            fns = [getattr(lib, spelling.format(name), None) for name in NumpyLapack.ROUTINES]
            if all(fn is not None for fn in fns):
                return NumpyLapack(*fns)
    return None


def _column_major(a):
    """(a, its leading dimension) where LAPACK can work on ``a`` in place, a
    writeable column-major float64 matrix or a block of one; else the same
    for a Fortran-ordered copy, as scipy's wrappers make."""
    a = np.asarray(a)
    if not (a.ndim == 2 and a.dtype == np.float64 and a.flags.writeable
            and a.strides[0] == 8 and a.strides[1] % 8 == 0 and a.strides[1] >= 8 * a.shape[0]):
        a = np.array(a, dtype=np.float64, order="F", ndmin=2)
    return a, max(a.strides[1] // 8, 1)


class NumpyLapack:
    """numpy's OpenBLAS LAPACK through ctypes, argtypes bound once: 64-bit
    integers by reference, and gfortran's hidden string lengths last. Each
    routine returns its result in its input where that is a column-major
    float64 array or block of one (:func:`_column_major`), else in a copy,
    and works on the lower triangle (``dtrtri``: the one it is told), as
    :data:`SCIPY_LAPACK`'s do. None sets numpy's thread count."""

    name = "numpy"
    ROUTINES = ("dpotrf", "dsygst", "dsytrd", "dtrtri", "dsyrk")

    def __init__(self, potrf, sygst, sytrd, trtri, syrk):
        i, d, p, c, s = (ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double),
                         ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t)
        for fn, argtypes in (
                (potrf, [c, i, p, i, i, s]),                       # uplo n a lda info
                (sygst, [i, c, i, p, i, p, i, i, s]),              # itype uplo n a lda b ldb info
                (sytrd, [c, i, p, i, p, p, p, p, i, i, s]),        # uplo n a lda d e tau work lwork info
                (trtri, [c, c, i, p, i, i, s, s]),                 # uplo diag n a lda info
                (syrk, [c, c, i, i, d, p, i, d, p, i, s, s])):     # uplo trans n k alpha a lda beta c ldc
            fn.restype, fn.argtypes = None, argtypes
        self._potrf, self._sygst, self._sytrd, self._trtri, self._syrk = (
            potrf, sygst, sytrd, trtri, syrk)

    @staticmethod
    def _int(value):
        return ctypes.byref(ctypes.c_int64(value))

    @staticmethod
    def _checked(info, routine):
        if info.value < 0:
            raise ValueError(f"{routine}: argument {-info.value} is illegal")
        return info.value

    def dpotrf(self, a):
        """(L, info): a's Cholesky factor in its lower triangle."""
        (a, ld), info = _column_major(a), ctypes.c_int64()
        self._potrf(b"L", self._int(a.shape[0]), a.ctypes.data, self._int(ld),
                    ctypes.byref(info), 1)
        return a, self._checked(info, "dpotrf")

    def dsygst(self, a, L):
        """L^-1 a L^-T in a's lower triangle."""
        (a, ld), (L, ldl), info = _column_major(a), _column_major(L), ctypes.c_int64()
        self._sygst(self._int(1), b"L", self._int(a.shape[0]), a.ctypes.data, self._int(ld),
                    L.ctypes.data, self._int(ldl), ctypes.byref(info), 1)
        self._checked(info, "dsygst")
        return a

    def dsytrd(self, a):
        """(C, d, e, tau): a = Q T Q^T, the reflectors below C's subdiagonal."""
        a, ld = _column_major(a)
        n = a.shape[0]
        d, e, tau = np.empty(n), np.empty(n), np.empty(n)

        def call(work, lwork):
            info = ctypes.c_int64()
            self._sytrd(b"L", self._int(n), a.ctypes.data, self._int(ld), d.ctypes.data,
                        e.ctypes.data, tau.ctypes.data, work.ctypes.data, self._int(lwork),
                        ctypes.byref(info), 1)
            self._checked(info, "dsytrd")

        query = np.empty(1)
        call(query, -1)    # the workspace size lands in query[0]
        call(np.empty(int(query[0])), int(query[0]))
        return a, d, e[:-1], tau[:-1]

    def dtrtri(self, a, lower):
        """The inverse of a's triangle, non-unit."""
        (a, ld), info = _column_major(a), ctypes.c_int64()
        self._trtri(b"L" if lower else b"U", b"N", self._int(a.shape[0]), a.ctypes.data,
                    self._int(ld), ctypes.byref(info), 1, 1)
        self._checked(info, "dtrtri")
        return a

    def dsyrk(self, a):
        """a^T a in the upper triangle of a new array, zeros below."""
        a, ld = _column_major(a)
        n = a.shape[1]
        out = np.zeros((n, n), order="F")
        one, zero = ctypes.c_double(1.0), ctypes.c_double(0.0)
        self._syrk(b"U", b"T", self._int(n), self._int(a.shape[0]), ctypes.byref(one),
                   a.ctypes.data, self._int(ld), ctypes.byref(zero), out.ctypes.data,
                   self._int(n), 1, 1)
        return out


class _ScipyLapack:
    """scipy's wrappers with :class:`NumpyLapack`'s signatures, looked up on
    each call."""

    name = "scipy"

    @staticmethod
    def dpotrf(a):
        return scipy_linalg().lapack.dpotrf(a, lower=1, overwrite_a=1)

    @staticmethod
    def dsygst(a, L):
        return scipy_linalg().lapack.dsygst(a, L, lower=1, overwrite_a=1)[0]

    @staticmethod
    def dsytrd(a):
        lapack = scipy_linalg().lapack
        lwork = int(lapack.dsytrd_lwork(a.shape[0], lower=1)[0])
        return lapack.dsytrd(a, lower=1, lwork=lwork, overwrite_a=1)[:4]

    @staticmethod
    def dtrtri(a, lower):
        return scipy_linalg().lapack.dtrtri(a, lower=lower, overwrite_c=1)[0]

    @staticmethod
    def dsyrk(a):
        return scipy_linalg().blas.dsyrk(1.0, a, trans=1)


SCIPY_LAPACK = _ScipyLapack()


class _OneThread:
    """Context manager factory: ``lookup()``'s OpenBLAS runs on one thread while
    any scope is open, in any thread. The first scope to open saves its count
    and the last to close restores it, also when its body raised. Where
    ``lookup()`` finds nothing, a scope changes nothing."""

    def __init__(self, lookup):
        self.lookup, self.lock, self.open, self.saved = lookup, threading.Lock(), 0, 0

    @contextlib.contextmanager
    def __call__(self):
        # outside the lock: the first lookup imports scipy, which no other
        # scope should wait on
        threads = self.lookup()
        with self.lock:
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


@contextlib.contextmanager
def reduction_lapack(n):
    """The LAPACK a reduction of order n runs on: numpy's from
    NUMPY_LAPACK_MIN_N on, where :func:`numpy_lapack` finds it, else scipy's
    inside a :data:`scipy_one_thread` scope."""
    lapack = numpy_lapack() if n >= NUMPY_LAPACK_MIN_N else None
    if lapack is not None:
        yield lapack
    else:
        with scipy_one_thread():
            yield SCIPY_LAPACK
