"""Partial eigensolvers for the symmetric generalized pencil A x = lambda M x.

Eigenvectors are returned M-orthonormal (X^T M X = I) with a deterministic
gauge: each column's largest-magnitude entry is made positive. Repeated
eigenvalues are grouped (transitive closure within tolerance); the groups,
a partition of the columns, are the one record of that structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, MaxIterExceeded, NotAnOperator, NotPositiveDefinite
from .linop import SymmetricOperator, spot_check_spd
from .sylvester import Reduction, linearize

DEFAULT_DEGENERACY_RTOL = 1e-8
# eig_iterative iterates on this many columns beyond the k it returns
GUARD = 2


@dataclass
class EigenResult:
    """k eigenpairs plus degeneracy structure of the retrieved spectrum."""

    X: np.ndarray           # n x k, M-orthonormal
    lambdas: np.ndarray     # ascending
    groups: list            # partition of {0..k-1}; k and D derive from it
    which: str = "smallest"
    k: int = field(init=False)
    D: np.ndarray = field(init=False)   # k x k 0/1 mask of groups
    # memo of sylvester.linearize; freed with this result
    _linearization: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.k = len(self.lambdas)
        self.D = group_mask(self.groups, self.k)


def group_mask(groups, k):
    """The k x k 0/1 matrix with D_ij = 1 when columns i and j share a group;
    ValueError unless ``groups`` partition 0..k-1, each column exactly once."""
    if sorted(j for grp in groups for j in grp) != list(range(k)):
        raise ValueError(f"groups {groups} do not partition the {k} columns")
    gid = np.empty(k, dtype=int)
    for g, grp in enumerate(groups):
        gid[grp] = g
    return (gid[:, None] == gid).astype(int)


def build_degeneracy(lambdas, tol_rel=DEFAULT_DEGENERACY_RTOL):
    """Group eigenvalues equal within tolerance; returns the groups.

    Pairs with |l_i - l_j| <= tol_rel * max|l| are merged, and the grouping
    is the transitive closure, so the groups partition the indices.
    """
    lam = np.asarray(lambdas, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    thresh = tol_rel * (np.max(np.abs(lam)) if lam.size else 0.0)

    # in ascending order, the closure is broken exactly by gaps above thresh
    order = np.argsort(lam, kind="stable")
    cuts = np.flatnonzero(np.diff(lam[order]) > thresh) + 1
    return sorted((sorted(c.tolist()) for c in np.split(order, cuts) if c.size),
                  key=lambda g: g[0])


def _fix_gauge(X):
    """Make each column's largest-|entry| positive (first index wins ties)."""
    peak = X[np.argmax(np.abs(X), axis=0), np.arange(X.shape[1])]
    return X * np.where(peak < 0, -1.0, 1.0)


def _finalize(X, lam, which, tol_rel=DEFAULT_DEGENERACY_RTOL):
    """The result for X, which both solvers deliver M-orthonormal."""
    return EigenResult(X=_fix_gauge(X), lambdas=np.asarray(lam, float),
                       groups=build_degeneracy(lam, tol_rel=tol_rel), which=which)


def _check_request(A, M, k, which):
    """The checks both eigensolvers make on (A, M, k, which) before any work;
    returns n."""
    for name, op in (("A", A), ("M", M)):
        if not isinstance(op, SymmetricOperator):
            raise NotAnOperator(name, op)
    n = A.dim
    if M.dim != n:
        raise DimensionMismatch(f"A has dim {n} but M has dim {M.dim}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if which not in ("smallest", "largest"):
        raise ValueError(f"which must be 'smallest' or 'largest', got {which!r}")
    return n


def eig_dense(A, M, k, which="smallest", degeneracy_rtol=DEFAULT_DEGENERACY_RTOL):
    """Dense path: k extremal eigenpairs through the pencil's tridiagonal
    :class:`~eigengrad.sylvester.Reduction` (dpotrf, dsygst, dsytrd), the
    eigenvectors of T by bisection and inverse iteration, then x = L^-T Q s.

    The reduction is kept: it seeds the linearization memoized on the
    result, so every dense derivative reuses it.
    """
    n = _check_request(A, M, k, which)
    red = Reduction(A, M)
    sel = (0, k - 1) if which == "smallest" else (n - k, n - 1)
    lam, S = scipy.linalg.eigh_tridiagonal(red.d, red.e, select="i", select_range=sel)
    eig = _finalize(red.from_tri(S), lam, which, degeneracy_rtol)
    linearize(A, M, eig).reduction = red
    return eig


def _whitening(G):
    """F with F^T G F = I for the M-Gram matrix G of a block (lower triangle
    read), without directions below 1e-12 of its largest eigenvalue (SVQB,
    Duersch et al. 2018); raises if G is indefinite beyond that."""
    w, V = np.linalg.eigh(G)
    floor = 1e-12 * max(w.max(), 0.0)
    if w.min() < -floor:
        raise NotPositiveDefinite(
            f"M-Gram matrix has eigenvalue {w.min():.3e} (largest {w.max():.3e})")
    return V[:, w > floor] / np.sqrt(w[w > floor])


def _ritz(X, AX, MX):
    """Rayleigh-Ritz on span(X): theta ascending, M-orthonormal X, A X, M X."""
    F = _whitening(X.T @ MX)
    theta, C = np.linalg.eigh(F.T @ (X.T @ AX) @ F)   # reads the lower triangle
    F = F @ C
    return theta, X @ F, AX @ F, MX @ F


def eig_iterative(A, M, k, which="smallest", maxiter=500, tol=1e-9, precond=None, seed=0):
    """Matrix-free path: LOBPCG (Knyazev 2001) with carried block products.

    The block holds b = min(k + GUARD, n // 4) columns: the k wanted ones plus
    guard columns, which move the gap the wanted columns converge against
    from lambda_{k+1} to lambda_{b+1}. Only the k wanted columns (the first k
    for ``"smallest"``, the last k for ``"largest"``) are tested for
    convergence, and only they are returned. Rayleigh-Ritz runs on
    S = [X, P, W]: the Ritz block, the conjugate directions and the
    (preconditioned) residuals. A S and M S are carried through the Ritz
    coefficients, so each step applies A and M once, to W only; P is kept
    M-orthonormal to X (Duersch et al. 2018). Columns whose residual meets
    ``tol`` are soft-locked: they stay in the Rayleigh-Ritz basis but get no
    new direction in W. When the carried residuals of the wanted columns meet
    ``tol``, and every 32 steps, A and M are applied to all of X again and
    Rayleigh-Ritz rerun on those products; iteration stops only when that
    explicit residual meets ``tol``. Small problems (n <= max(4k, 12)) are
    materialized and solved densely. On either branch ``precond`` seeds the
    linearization memoized on the result: its iterative derivative solves
    for ``which="smallest"`` run PCG with it.
    """
    n = _check_request(A, M, k, which)
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, got {maxiter}")
    if not spot_check_spd(M, seed=seed):
        raise NotPositiveDefinite("M failed the positivity spot-check")
    eig = (eig_dense(A, M, k, which) if n <= max(4 * k, 12)
           else _lobpcg(A, M, k, which, maxiter, tol, precond, seed))
    if precond is not None:
        linearize(A, M, eig).precond = precond
    return eig


def _lobpcg(A, M, k, which, maxiter, tol, precond, seed):
    """:func:`eig_iterative`'s iteration on a checked request, n > max(4 k, 12)."""
    n = A.dim
    b = min(k + GUARD, n // 4)   # 3 b <= 3 n / 4: the basis S stays well short of n
    want = slice(0, k) if which == "smallest" else slice(b - k, b)
    X = np.random.default_rng(seed).standard_normal((n, b))
    theta, X, AX, MX = _ritz(X, A.apply_batch(X), M.apply_batch(X))
    # column-major, so the column blocks X, [X, P] and W are contiguous
    S, AS, MS = (np.empty((n, 3 * b), order="F") for _ in range(3))
    S[:, :b], AS[:, :b], MS[:, :b] = X, AX, MX
    q, it, fresh = b, 0, 0   # q: columns of [X, P]; fresh: last step with explicit A X, M X

    while True:
        X, AX, MX = S[:, :b], AS[:, :b], MS[:, :b]
        R = AX - MX * theta
        resnorms = np.linalg.norm(R, axis=0)
        scale = np.linalg.norm(AX, axis=0) + np.abs(theta) * np.linalg.norm(MX, axis=0)
        done = resnorms <= tol * np.maximum(scale, 1e-30)
        converged = np.all(done[want])
        # explicit products every 32 steps too: they reset the roundoff the
        # carried ones gather, without which the attainable residual stalls
        if (converged or it % 32 == 0) and fresh != it:
            theta, S[:, :b], AS[:, :b], MS[:, :b] = _ritz(X, A.apply_batch(X),
                                                          M.apply_batch(X))
            fresh = it
            continue
        if converged:
            break
        if it == maxiter:
            best = _finalize(X[:, want].copy(), theta[want], which)
            raise MaxIterExceeded(
                f"eig_iterative: {maxiter} iterations, residuals {resnorms[want]}",
                payload=best)
        it += 1

        R = R[:, ~done]
        W = precond(R) if precond is not None else R
        Q, MQ = S[:, :q], MS[:, :q]
        W = W - Q @ (MQ.T @ W)
        MW = M.apply_batch(W)
        F = _whitening(W.T @ MW)
        p = q + F.shape[1]
        W = np.matmul(W, F, out=S[:, q:p])
        MW = np.matmul(MW, F, out=MS[:, q:p])
        # second pass on the carried M W: whitening amplifies what the first left
        C = Q.T @ MW
        W -= Q @ C
        MW -= MQ @ C
        AS[:, q:p] = A.apply_batch(W)

        w, C = np.linalg.eigh(S[:, :p].T @ AS[:, :p])
        sel, rest = ((slice(0, b), slice(b, p)) if which == "smallest"
                     else (slice(p - b, p), slice(0, p - b)))
        # P spans what the new X gained over the old one, M-orthonormal to it:
        # the rest of the Ritz basis, rotated onto the old X's coordinates
        C = np.hstack([C[:, sel], C[:, rest] @ np.linalg.qr(C[:b, rest].T)[0]])
        theta, q = w[sel], C.shape[1]
        for B in (S, AS, MS):   # transposed, so the product is column-major too
            B[:, :q] = (C.T @ B[:, :p].T).T

    return _finalize(S[:, want].copy(), theta[want], which)
