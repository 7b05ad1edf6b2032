"""Matrix-free symmetric linear operators and the dense reference implementation.

All solver modules consume operators only through ``apply``/``apply_batch``,
so a user can supply a closure for matrices too large to store. Operators are
immutable after construction and hold no mutable state, so concurrent applies
on distinct vectors are safe.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, NonSquareError


class SymmetricOperator:
    """Real symmetric linear map of dimension ``dim`` given by matvec closures.

    Symmetry is the caller's promise; use :func:`check_symmetry` to spot-check.
    """

    def __init__(self, dim, apply_fn, apply_batch_fn=None):
        dim = int(dim)
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._apply = apply_fn
        self._apply_batch = apply_batch_fn

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of shape ({self.dim},), got {v.shape}")
        out = np.asarray(self._apply(v), dtype=float)
        return out.reshape(self.dim)

    def apply_batch(self, V):
        """Apply to an n-by-m block; defaults to columnwise apply."""
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            return self.apply(V)
        if V.shape[0] != self.dim:
            raise ValueError(f"expected block with {self.dim} rows, got {V.shape}")
        if self._apply_batch is not None:
            out = np.asarray(self._apply_batch(V), dtype=float)
            return out.reshape(V.shape)
        out = np.empty_like(V)
        for j in range(V.shape[1]):
            out[:, j] = self.apply(V[:, j])
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
        super().__init__(entries.shape[0], None)

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        return self.entries @ v

    def apply_batch(self, V):
        V = np.asarray(V, dtype=float)
        return self.entries @ V


def make_dense(entries):
    """Wrap a square array as a :class:`DenseSymmetric` (symmetrizing it)."""
    return DenseSymmetric(entries)


def make_spd(entries):
    """:func:`make_dense` for a mass matrix, whose positive definiteness the
    caller attests; :func:`spot_check_spd` probes it."""
    return make_dense(entries)


def identity_operator(n):
    return make_spd(np.eye(n))


def as_dense_array(op, copy=True):
    """Materialize an operator as a dense array.

    Cheap for dense-backed operators; otherwise costs ``dim`` applies.
    ``copy=False`` returns a dense-backed operator's entries: do not modify.
    """
    if isinstance(op, DenseSymmetric):
        return op.entries.copy() if copy else op.entries
    return np.asarray(op.apply_batch(np.eye(op.dim)), dtype=float)


def check_symmetry(op, trials=10, tol=1e-12, seed=0):
    """Spot-check <u, Av> == <v, Au> on random probe pairs.

    Returns False on the first violating probe; never raises.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n = op.dim
    # crude operator norm estimate from the probes themselves
    for _ in range(trials):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        au = op.apply(u)
        av = op.apply(v)
        opnorm = max(
            np.linalg.norm(au) / max(np.linalg.norm(u), 1e-300),
            np.linalg.norm(av) / max(np.linalg.norm(v), 1e-300),
            1.0,
        )
        gap = abs(u @ av - v @ au)
        if gap > tol * np.linalg.norm(u) * np.linalg.norm(v) * opnorm:
            return False
    return True


def spot_check_spd(op, seed=0):
    """Probabilistic positivity check: <v, Mv> > 0 for five random v."""
    rng = np.random.default_rng(seed)
    for _ in range(5):
        v = rng.standard_normal(op.dim)
        if v @ op.apply(v) <= 0.0:
            return False
    return True


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
        rows = []
        for i in range(n):
            row = [float(tok) for tok in fh.readline().split()]
            if len(row) != n:
                raise ValueError(f"{path}: row {i} has {len(row)} entries, expected {n}")
            rows.append(row)
    if not np.all(np.isfinite(rows)):
        raise NonFiniteError(f"{path}: matrix entries must be finite")
    return np.array(rows)


def read_symmat(path):
    """Read a ``symmat`` file (:func:`read_rows`) as a :class:`DenseSymmetric`;
    the parser symmetrizes."""
    return make_dense(read_rows(path))


def write_symmat(path, entries):
    """Write a square array in the ``symmat`` text format (full precision)."""
    entries = np.asarray(entries, dtype=float)
    n = entries.shape[0]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"symmat {n}\n")
        for i in range(n):
            fh.write(" ".join(format(x, ".17g") for x in entries[i]) + "\n")
