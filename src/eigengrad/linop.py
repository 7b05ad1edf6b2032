"""Matrix-free symmetric linear operators and the dense reference implementation.

All solver modules consume operators only through ``apply_batch`` on n-by-m
blocks, so a user can supply a closure for matrices too large to store; a
closure on single vectors is applied column by column. Operators are
immutable after construction and hold no mutable state, so concurrent applies
on distinct blocks are safe.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, NonSquareError


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
                    out[:, j] = np.asarray(apply_fn(V[:, j]), dtype=float).reshape(dim)
                return out
        self._apply_batch = apply_batch_fn

    def apply_batch(self, V):
        """Apply to an n-by-m block."""
        V = np.asarray(V, dtype=float)
        if V.ndim != 2 or V.shape[0] != self.dim:
            raise ValueError(f"expected a block with {self.dim} rows, got shape {V.shape}")
        return np.asarray(self._apply_batch(V), dtype=float).reshape(V.shape)


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
    return op.apply_batch(np.eye(op.dim))


def check_symmetry(op, trials=10):
    """Spot-check <u, Av> == <v, Au> (to 1e-12) on ``trials`` seeded probe pairs,
    applied as one u-block and one v-block; False if any pair violates."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    P = np.random.default_rng(0).standard_normal((trials, 2, op.dim))
    U, V = P[:, 0].T, P[:, 1].T
    AU, AV = op.apply_batch(U), op.apply_batch(V)
    nu, nv = np.linalg.norm(U, axis=0), np.linalg.norm(V, axis=0)
    # crude operator norm estimate from the probes themselves
    opnorm = np.max([np.linalg.norm(AU, axis=0) / np.maximum(nu, 1e-300),
                     np.linalg.norm(AV, axis=0) / np.maximum(nv, 1e-300),
                     np.ones(trials)], axis=0)
    gap = np.abs(np.einsum("ij,ij->j", U, AV) - np.einsum("ij,ij->j", V, AU))
    return not np.any(gap > 1e-12 * nu * nv * opnorm)


def spot_check_spd(op, seed=0):
    """Probabilistic positivity check: <v, Mv> > 0 for five random v, one block."""
    V = np.random.default_rng(seed).standard_normal((5, op.dim)).T
    return not np.any(np.einsum("ij,ij->j", V, op.apply_batch(V)) <= 0.0)


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
