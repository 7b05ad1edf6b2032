"""Matrix-free symmetric linear operators and the dense reference implementation.

All solver modules consume operators only through ``apply_batch`` on n-by-m
blocks, so a user can supply a closure for matrices too large to store; a
closure on single vectors is applied column by column. Operators are
immutable after construction and hold no mutable state, so concurrent applies
on distinct blocks are safe.
"""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatch, NonFiniteError, NonSquareError, NotAnOperator

SYMMETRY_TRIALS = 10


def is_count(value):
    """Whether ``value`` is an integer >= 1, numpy's included and a bool not:
    the one rule for an operator's dim, an eigensolve's k and a maxiter."""
    return not isinstance(value, bool) and isinstance(value, Integral) and value >= 1


class SymmetricOperator:
    """Real symmetric linear map of dimension ``dim``, applied to n-by-m blocks.

    ``apply_batch_fn`` maps a block to a block. Without it, ``apply_fn`` maps
    one vector to one vector and is applied column by column.
    Symmetry is the caller's promise; use :func:`check_symmetry` to spot-check.
    """

    def __init__(self, dim, apply_fn, apply_batch_fn=None):
        if not is_count(dim):
            raise ValueError(f"dim must be positive, got {dim!r} (an integer >= 1)")
        self.dim = dim = int(dim)
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


def _square_entries(entries):
    """``entries`` as a float array; NonSquareError unless it is 2-D and
    square, NonFiniteError unless every entry is finite."""
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise NonSquareError(f"expected a square array, got shape {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise NonFiniteError("matrix entries must be finite")
    return entries


class DenseSymmetric(SymmetricOperator):
    """Fully stored symmetric matrix; construction symmetrizes the entries."""

    def __init__(self, entries):
        entries = _square_entries(entries)
        self.entries = 0.5 * (entries + entries.T)
        super().__init__(entries.shape[0], None, self.entries.__matmul__)


class LowRank:
    """The n x n matrix U W^T, kept as its two n x k factors (O(nk) memory).

    ``.dense()`` or ``np.asarray`` forms the n x n array. ``@`` (from either
    side), ``.pair``, ``.diagonal()``, ``.T``, a scalar ``*`` or ``/``, unary
    ``-``, and ``+``/``-`` between LowRanks (ranks add) work on the factors and
    never write them, as they may alias the caller's arrays (a ``vjp``
    output's W is ``eig.X``). ``+``, ``-``, ``*`` and ``/`` with a non-scalar
    ndarray give the dense array. ``np.diagonal`` and ``np.vdot`` call
    ``.diagonal()`` and ``.pair``; any other numpy function raises TypeError.
    """

    __array_ufunc__ = None    # numpy's operators defer to the methods below

    def __init__(self, U, W):
        U, W = np.asarray(U, dtype=float), np.asarray(W, dtype=float)
        if U.ndim != 2 or W.ndim != 2 or U.shape[1] != W.shape[1]:
            raise DimensionMismatch(f"factors of shapes {U.shape} and {W.shape} do not form U W^T")
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

    def diagonal(self):
        return np.einsum("ij,ij->i", *(F[:min(self.shape)] for F in (self.U, self.W)))

    def pair(self, P):
        """<U W^T, P>_F = sum U o (P W), one apply of ``P`` to k columns; for a
        LowRank P = U2 W2^T, sum (U^T U2) o (W^T W2). DimensionMismatch unless
        ``P`` has this shape, TypeError unless it is real."""
        if not isinstance(P, (SymmetricOperator, LowRank)):
            P = np.asarray(P)
            if P.dtype.kind not in "biuf":
                raise TypeError(f"cannot pair a LowRank with an array of dtype {P.dtype}")
        shape = (P.dim, P.dim) if isinstance(P, SymmetricOperator) else P.shape
        if shape != self.shape:
            raise DimensionMismatch(f"cannot pair a LowRank of shape {self.shape} "
                                    f"with shape {shape}")
        if isinstance(P, LowRank):
            return float(np.vdot(self.U.T @ P.U, self.W.T @ P.W))
        PW = P.apply_batch(self.W) if isinstance(P, SymmetricOperator) else P @ self.W
        return float(np.vdot(self.U, PW))

    def __array_function__(self, func, types, args, kwargs):
        if func is np.diagonal and len(args) == 1 and not kwargs:
            return self.diagonal()
        if func is np.vdot and len(args) == 2:    # <a, b>_F = <b, a>_F, as both are real
            return self.pair(args[1] if args[0] is self else args[0])
        return NotImplemented

    def __matmul__(self, V):
        if isinstance(V, LowRank):
            return LowRank(self.U @ (self.W.T @ V.U), V.W)
        return self.U @ (self.W.T @ V)

    def __rmatmul__(self, V):
        return (V @ self.U) @ self.W.T

    def _elementwise(self, op, s):
        """op(U, s) as a LowRank for a real scalar s, op(dense, s) for an ndarray s."""
        if isinstance(s, (Real, np.ndarray)) and np.ndim(s) == 0 and np.isrealobj(s):
            return LowRank(op(self.U, s), self.W)
        return op(self.dense(), s) if isinstance(s, np.ndarray) else NotImplemented

    def __mul__(self, s):
        return self._elementwise(np.multiply, s)

    __rmul__ = __mul__

    def __truediv__(self, s):
        return self._elementwise(np.divide, s)

    def __neg__(self):
        return LowRank(-self.U, self.W)

    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return self.dense() + other
        if not isinstance(other, LowRank):
            return NotImplemented
        if other.shape != self.shape:
            raise DimensionMismatch(f"cannot add LowRanks of shapes {self.shape} and {other.shape}")
        return LowRank(np.hstack([self.U, other.U]), np.hstack([self.W, other.W]))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, np.ndarray):
            return self.dense() - other
        return self + -other if isinstance(other, LowRank) else NotImplemented

    def __rsub__(self, other):
        return other - self.dense() if isinstance(other, np.ndarray) else NotImplemented


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


def check_pencil(A, M, eig=None):
    """The one operand rule for a pencil: NotAnOperator unless A and M are
    operators, DimensionMismatch unless M and, where an ``eig`` is given, the
    rows of its X have A's dim; returns that dim n."""
    check_operators(A=A, M=M)
    n = A.dim
    if M.dim != n:
        raise DimensionMismatch(f"A has dim {n} but M has dim {M.dim}")
    if eig is not None and eig.X.shape[0] != n:
        raise DimensionMismatch(f"A has dim {n} but eig.X has {eig.X.shape[0]} rows")
    return n


def check_tangent(t, n):
    """The operand rule for a tangent: NotAnOperator unless ``t.Aprime`` and
    ``t.Mprime`` are operators, DimensionMismatch unless both have the
    pencil's dim n; checked before either is applied."""
    check_operators(Aprime=t.Aprime, Mprime=t.Mprime)
    for name, op in (("Aprime", t.Aprime), ("Mprime", t.Mprime)):
        if op.dim != n:
            raise DimensionMismatch(f"the pencil has dim {n} but {name} has dim {op.dim}")


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
        n = int(header[1]) if len(header) == 2 and header[1].isdigit() else 0
        if header[:1] != ["symmat"] or n < 1:
            raise ValueError(f"{path}: bad symmat header {header!r}")
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
    """Write a square array in the ``symmat`` text format (full precision);
    NonSquareError or NonFiniteError, before the file is opened, for an array
    :func:`read_symmat` would refuse."""
    entries = _square_entries(entries)
    np.savetxt(path, entries, fmt="%.17g", header=f"symmat {entries.shape[0]}", comments="")
