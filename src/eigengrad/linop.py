"""Matrix-free symmetric linear operators and the dense reference implementation.

All solver modules consume operators only through ``apply_batch`` on n-by-m
blocks, so a user can supply a closure for matrices too large to store; a
closure on single vectors is applied column by column. Operators are
immutable after construction and hold no mutable state, so concurrent applies
on distinct blocks are safe.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteError, NonSquareError, NotAnOperator

SYMMETRY_TRIALS = 10


class SymmetricOperator:
    """Real symmetric linear map of dimension ``dim``, applied to n-by-m blocks.

    ``apply_batch_fn`` maps a block to a block. Without it, ``apply_fn`` maps
    one vector to one vector and is applied column by column.
    Symmetry is the caller's promise; use :func:`check_symmetry` to spot-check.
    """

    def __init__(self, dim, apply_fn, apply_batch_fn=None):
        dim = int(dim)
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        if apply_batch_fn is None:    # a vector closure, applied column by column
            def apply_batch_fn(V):
                out = np.empty_like(V)
                for j in range(V.shape[1]):
                    y = np.asarray(apply_fn(V[:, j]), dtype=float)
                    if y.size != dim:
                        raise DimensionMismatch(f"an operator of dim {dim} returned shape "
                                                f"{y.shape} for a vector")
                    out[:, j] = y.reshape(dim)
                return out
        self._apply_batch = apply_batch_fn

    def apply_batch(self, V):
        """Apply to an n-by-m block; DimensionMismatch unless the block and
        its product are both n by m (a transposed product is not reshaped),
        NonFiniteError if the product holds a NaN or inf. Every layer applies
        operators here, so these are the only checks on a product."""
        V = np.asarray(V, dtype=float)
        if V.ndim != 2 or V.shape[0] != self.dim:
            raise DimensionMismatch(f"expected a block with {self.dim} rows, got shape {V.shape}")
        out = np.asarray(self._apply_batch(V), dtype=float)
        if out.shape != V.shape:
            raise DimensionMismatch(f"an operator of dim {self.dim} returned shape {out.shape} "
                                    f"for a block of shape {V.shape}")
        if not np.isfinite(out).all():    # the method skips np.all's Python wrapper
            raise NonFiniteError(f"an operator of dim {self.dim} returned a non-finite product")
        return out


class DenseSymmetric(SymmetricOperator):
    """Fully stored symmetric matrix; construction symmetrizes the entries."""

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise NonSquareError(f"expected a square array, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise NonFiniteError("matrix entries must be finite")
        self.entries = 0.5 * (entries + entries.T)
        super().__init__(entries.shape[0], None, self.entries.__matmul__)


class LowRank:
    """The n x n matrix U W^T, kept as its two n x k factors.

    Costs O(nk) memory; ``.dense()`` (or ``np.asarray``) forms the n x n
    array. ``@`` applies it as U (W^T V), ``.pair(P)`` is the Frobenius inner
    product with a matrix, LowRank or :class:`SymmetricOperator` (one apply to
    k columns), ``.T`` swaps the factors, a scalar ``*``, ``/`` and unary ``-``
    scale U, and ``+``/``-`` between LowRanks concatenate the factors (ranks add).
    Every result is a new LowRank: no method writes the factors, which may
    alias the caller's arrays (a ``vjp`` output's W is ``eig.X``). The numpy
    calls in ``_NUMPY`` stay factored: ``np.diagonal``, ``np.trace``, ``np.vdot``,
    ``np.transpose``, ``np.matmul``/``np.dot`` with a block or LowRank, a scalar
    ``np.multiply`` (``np.float64(2.0) * L``), ``np.divide`` by a scalar and
    ``np.negative``. Any other numpy function or ufunc (``np.sum``,
    ``ndarray * L``) gets the dense array.
    """

    def __init__(self, U, W):
        if U.ndim != 2 or W.ndim != 2 or U.shape[1] != W.shape[1]:
            raise DimensionMismatch(f"factors of shapes {U.shape} and {W.shape} "
                                    "do not form U W^T")
        self.U, self.W = U, W

    @property
    def shape(self):
        return (self.U.shape[0], self.W.shape[0])

    @property
    def T(self):
        return LowRank(self.W, self.U)

    def dense(self):
        return self.U @ self.W.T

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a LowRank has no n x n array to share; np.asarray forms one")
        return self.dense() if dtype is None else self.dense().astype(dtype, copy=False)

    def pair(self, P):
        """<U W^T, P>_F = sum U o (P W), one apply of ``P`` to k columns; for a
        LowRank P = U2 W2^T, sum (U^T U2) o (W^T W2). DimensionMismatch unless
        ``P`` has this shape."""
        if not isinstance(P, (SymmetricOperator, LowRank)):
            P = np.asarray(P)
        shape = (P.dim, P.dim) if isinstance(P, SymmetricOperator) else P.shape
        if shape != self.shape:
            raise DimensionMismatch(f"cannot pair a LowRank of shape {self.shape} "
                                    f"with shape {shape}")
        if isinstance(P, LowRank):
            return float(np.vdot(self.U.T @ P.U, self.W.T @ P.W))
        PW = P.apply_batch(self.W) if isinstance(P, SymmetricOperator) else P @ self.W
        return float(np.vdot(self.U, PW))

    def __matmul__(self, V):
        if isinstance(V, LowRank):
            return LowRank(self.U @ (self.W.T @ V.U), V.W)
        return self.U @ (self.W.T @ V)

    def __mul__(self, s):
        if isinstance(s, LowRank) or np.ndim(s) != 0:
            return NotImplemented
        return LowRank(self.U * s, self.W)

    __rmul__ = __mul__

    def __truediv__(self, s):
        if isinstance(s, LowRank) or np.ndim(s) != 0:
            return NotImplemented
        return LowRank(self.U / s, self.W)

    def __neg__(self):
        return LowRank(-self.U, self.W)

    def __add__(self, other):
        if not isinstance(other, LowRank):
            return NotImplemented
        if other.shape != self.shape:
            raise DimensionMismatch(f"cannot add LowRanks of shapes {self.shape} and {other.shape}")
        return LowRank(np.hstack([self.U, other.U]), np.hstack([self.W, other.W]))

    def __sub__(self, other):
        return self + -other if isinstance(other, LowRank) else NotImplemented

    # binary entries of _NUMPY: the LowRank may be either argument
    def _vdot(a, b):
        L, P = (a, b) if isinstance(a, LowRank) else (b, a)
        real = isinstance(P, LowRank) or (isinstance(P, np.ndarray) and P.dtype.kind in "biuf")
        return L.pair(P) if real else NotImplemented

    def _matmul(a, b):
        if not isinstance(b, LowRank):
            return a @ b if np.ndim(b) in (1, 2) else NotImplemented
        if not isinstance(a, LowRank):
            return (a @ b.U) @ b.W.T if np.ndim(a) in (1, 2) else NotImplemented
        return a @ b

    # numpy functions and ufuncs answered from the factors: func -> (number of
    # positional arguments, implementation); an implementation's NotImplemented,
    # like any keyword argument, leaves the call to the dense array
    _NUMPY = {
        np.diagonal: (1, lambda L: np.einsum("ij,ij->i", *(F[:min(L.shape)] for F in (L.U, L.W)))),
        np.trace: (1, lambda L: np.sum(np.diagonal(L))),
        np.transpose: (1, lambda L: L.T),
        np.negative: (1, lambda L: -L),
        np.multiply: (2, lambda a, b: a.__mul__(b) if isinstance(a, LowRank) else b.__rmul__(a)),
        np.divide: (2, lambda a, b: (a.__truediv__(b) if isinstance(a, LowRank)
                                     else NotImplemented)),
        np.vdot: (2, _vdot),
        np.matmul: (2, _matmul),
        np.dot: (2, _matmul),
    }

    def _factored(self, func, args, kwargs):
        arity, impl = self._NUMPY.get(func, (None, None))
        return impl(*args) if arity == len(args) and not kwargs else NotImplemented

    def __array_function__(self, func, types, args, kwargs):
        if not all(issubclass(t, (np.ndarray, LowRank)) for t in types):
            return NotImplemented
        out = self._factored(func, args, kwargs)
        if out is NotImplemented and hasattr(func, "_implementation"):
            out = func._implementation(*args, **kwargs)    # numpy's own code, through __array__
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        outs = kwargs.get("out", ())
        if any(isinstance(x, LowRank) for x in outs) or any(
                hasattr(x, "__array_ufunc__") and not isinstance(x, (np.ndarray, LowRank))
                for x in inputs + outs):
            return NotImplemented
        out = self._factored(ufunc, inputs, kwargs) if method == "__call__" else NotImplemented
        if out is NotImplemented:
            out = getattr(ufunc, method)(*(x.dense() if isinstance(x, LowRank) else x
                                           for x in inputs), **kwargs)
        return out


def make_dense(entries):
    """Wrap a square array as a :class:`DenseSymmetric` (symmetrizing it)."""
    return DenseSymmetric(entries)


def make_spd(entries):
    """:func:`make_dense` for a mass matrix, whose positive definiteness the
    caller attests; ``eig_dense``'s Cholesky factorization and
    ``eig_iterative``'s Lanczos probe check it."""
    return make_dense(entries)


def identity_operator(n):
    """M = I as a block closure that stores nothing, so a matrix-free standard
    pencil runs at any n. An apply returns a copy: callers write into it."""
    return SymmetricOperator(n, None, lambda V: V.copy())


def check_operators(**ops):
    """NotAnOperator for the first of ``ops``, by keyword name, that is not a
    SymmetricOperator: a raw array, say."""
    for name, op in ops.items():
        if not isinstance(op, SymmetricOperator):
            raise NotAnOperator(name, op)


def as_dense_array(op):
    """Materialize an operator as a new dense array.

    Cheap for dense-backed operators; otherwise costs ``dim`` applies.
    """
    if isinstance(op, DenseSymmetric):
        return op.entries.copy()
    return op.apply_batch(np.eye(op.dim))


def check_symmetry(op):
    """Spot-check <u, Av> == <v, Au> (to 1e-12) on SYMMETRY_TRIALS seeded probe
    pairs, applied as one u-block and one v-block; False if any pair violates."""
    check_operators(op=op)
    P = np.random.default_rng(0).standard_normal((SYMMETRY_TRIALS, 2, op.dim))
    U, V = P[:, 0].T, P[:, 1].T
    AU, AV = op.apply_batch(U), op.apply_batch(V)
    nu, nv = np.linalg.norm(U, axis=0), np.linalg.norm(V, axis=0)
    # crude operator norm estimate from the probes themselves
    opnorm = np.max([np.linalg.norm(AU, axis=0) / np.maximum(nu, 1e-300),
                     np.linalg.norm(AV, axis=0) / np.maximum(nv, 1e-300),
                     np.ones(SYMMETRY_TRIALS)], axis=0)
    gap = np.abs(np.einsum("ij,ij->j", U, AV) - np.einsum("ij,ij->j", V, AU))
    return not np.any(gap > 1e-12 * nu * nv * opnorm)


def read_rows(path):
    """Read the ``symmat`` text format: the n x n array as written.

    Format: first line ``symmat <n>``, then n rows of n whitespace-separated
    floats, all finite.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "symmat" or int(header[1]) < 1:
            raise ValueError(f"{path}: bad symmat header {header!r}")
        n = int(header[1])
        rows = np.loadtxt(fh, ndmin=2, max_rows=n)
    if rows.shape != (n, n):
        raise ValueError(f"{path}: expected {n} rows of {n} entries, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise NonFiniteError(f"{path}: matrix entries must be finite")
    return rows


def read_symmat(path):
    """Read a ``symmat`` file (:func:`read_rows`) as a :class:`DenseSymmetric`;
    the parser symmetrizes."""
    return make_dense(read_rows(path))


def write_symmat(path, entries):
    """Write a square array in the ``symmat`` text format (full precision)."""
    entries = np.asarray(entries, dtype=float)
    np.savetxt(path, entries, fmt="%.17g", header=f"symmat {entries.shape[0]}", comments="")
