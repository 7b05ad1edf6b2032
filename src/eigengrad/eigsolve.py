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

from .errors import MaxIterExceeded, NotPositiveDefinite
from .linop import as_dense_array, spot_check_spd

DEFAULT_DEGENERACY_RTOL = 1e-8


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
    X = np.array(X, dtype=float)
    peak = X[np.argmax(np.abs(X), axis=0), np.arange(X.shape[1])]
    return X * np.where(peak < 0, -1.0, 1.0)


def _group_orthonormalize(X, M, groups):
    """Gram-Schmidt (as Cholesky QR) in the M-inner product inside each group."""
    X = np.array(X, dtype=float)
    for grp in (g for g in groups if len(g) > 1):
        X[:, grp] = X[:, grp] @ _whitening(X[:, grp].T @ M.apply_batch(X[:, grp]))
    return X


def _finalize(X, lam, which, M, tol_rel):
    groups = build_degeneracy(lam, tol_rel=tol_rel)
    X = _group_orthonormalize(X, M, groups)
    X = _fix_gauge(X)
    return EigenResult(X=X, lambdas=np.asarray(lam, float), groups=groups, which=which)


def _check_request(n, k, which):
    """The checks both eigensolvers make on (k, which) before any work."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if which not in ("smallest", "largest"):
        raise ValueError(f"which must be 'smallest' or 'largest', got {which!r}")


def eig_dense(A, M, k, which="smallest", degeneracy_rtol=DEFAULT_DEGENERACY_RTOL):
    """Dense path: k extremal eigenpairs via LAPACK on the materialized pencil."""
    n = A.dim
    _check_request(n, k, which)
    Ad = as_dense_array(A)
    Md = as_dense_array(M)
    sel = [0, k - 1] if which == "smallest" else [n - k, n - 1]
    try:
        lam, X = scipy.linalg.eigh(Ad, Md, subset_by_index=sel)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("M is not positive definite") from exc
    return _finalize(X, lam, which, M, degeneracy_rtol)


def _whitening(G):
    """F with F^T G F = I for the M-Gram matrix G of a block (lower triangle
    read), without directions below 1e-12 of its largest eigenvalue; raises
    if G is indefinite beyond that."""
    try:   # numpy only (one OpenBLAS pool); inv + GEMM: ~10x faster than n solves
        return np.linalg.inv(np.linalg.cholesky(G)).T
    except np.linalg.LinAlgError:
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


def eig_iterative(A, M, k, which="smallest", maxiter=500, tol=1e-9,
                  precond=None, seed=0, degeneracy_rtol=DEFAULT_DEGENERACY_RTOL):
    """Matrix-free path: LOBPCG (Knyazev 2001) with carried block products.

    Rayleigh-Ritz runs on S = [X, P, W]: the Ritz block, the conjugate
    directions and the (preconditioned) residuals. A S and M S are carried
    through the Ritz coefficients, so each step applies A and M once, to W
    only; P is kept M-orthonormal to X (Duersch et al. 2018). No column is
    locked. When the carried residuals meet ``tol``, and every 32 steps, A
    and M are applied to X again and Rayleigh-Ritz rerun on those products;
    iteration stops only when that explicit residual meets ``tol``. Small
    problems (n <= max(4k, 12)) are materialized and solved densely.
    """
    n = A.dim
    _check_request(n, k, which)
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, got {maxiter}")
    if not spot_check_spd(M, seed=seed):
        raise NotPositiveDefinite("M failed the positivity spot-check")
    if n <= max(4 * k, 12):
        return eig_dense(A, M, k, which, degeneracy_rtol)

    X = np.random.default_rng(seed).standard_normal((n, k))
    theta, X, AX, MX = _ritz(X, A.apply_batch(X), M.apply_batch(X))
    # column-major, so the column blocks X, [X, P] and W are contiguous
    S, AS, MS = (np.empty((n, 3 * k), order="F") for _ in range(3))
    S[:, :k], AS[:, :k], MS[:, :k] = X, AX, MX
    q, it, fresh = k, 0, 0   # q: columns of [X, P]; fresh: last step with explicit A X, M X

    while True:
        X, AX, MX = S[:, :k], AS[:, :k], MS[:, :k]
        R = AX - MX * theta
        resnorms = np.linalg.norm(R, axis=0)
        scale = np.linalg.norm(AX, axis=0) + np.abs(theta) * np.linalg.norm(MX, axis=0)
        converged = np.all(resnorms <= tol * np.maximum(scale, 1e-30))
        # explicit products every 32 steps too: they reset the roundoff the
        # carried ones gather, without which the attainable residual stalls
        if (converged or it % 32 == 0) and fresh != it:
            theta, S[:, :k], AS[:, :k], MS[:, :k] = _ritz(X, A.apply_batch(X),
                                                          M.apply_batch(X))
            fresh = it
            continue
        if converged:
            break
        if it == maxiter:
            best = _finalize(X.copy(), theta, which, M, degeneracy_rtol)
            raise MaxIterExceeded(
                f"eig_iterative: {maxiter} iterations, residuals {resnorms}", payload=best)
        it += 1

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
        sel, rest = ((slice(0, k), slice(k, p)) if which == "smallest"
                     else (slice(p - k, p), slice(0, p - k)))
        # P spans what the new X gained over the old one, M-orthonormal to it:
        # the rest of the Ritz basis, rotated onto the old X's coordinates
        C = np.hstack([C[:, sel], C[:, rest] @ np.linalg.qr(C[:k, rest].T)[0]])
        theta, q = w[sel], C.shape[1]
        for B in (S, AS, MS):
            B[:, :q] = B[:, :p] @ C

    return _finalize(S[:, :k].copy(), theta, which, M, degeneracy_rtol)
