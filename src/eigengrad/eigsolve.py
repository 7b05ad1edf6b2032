"""Partial eigensolvers for the symmetric generalized pencil A x = lambda M x.

Eigenvectors are returned M-orthonormal (X^T M X = I) with a deterministic
gauge: each column's largest-magnitude entry is made positive. Repeated
eigenvalues are grouped (transitive closure within tolerance) and recorded in
the 0/1 degeneracy matrix D.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import MaxIterExceeded, NotPositiveDefinite
from .linop import as_dense_array, make_dense, spot_check_spd

DEFAULT_DEGENERACY_RTOL = 1e-8


@dataclass
class EigenResult:
    """k eigenpairs plus degeneracy structure of the retrieved spectrum."""

    k: int
    X: np.ndarray           # n x k, M-orthonormal
    lambdas: np.ndarray     # ascending
    D: np.ndarray           # k x k 0/1 degeneracy matrix
    groups: list = field(default_factory=list)  # partition of {0..k-1}
    which: str = "smallest"
    # memo of sylvester.linearize; freed with this result
    _linearization: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not np.array_equal(self.D, group_mask(self.groups, self.k)):
            raise ValueError(f"D is not the block mask of groups {self.groups}")


def group_mask(groups, k):
    """The k x k 0/1 matrix with D_ij = 1 when columns i and j share a group."""
    gid = np.full(k, -1)
    for g, grp in enumerate(groups):
        gid[grp] = g
    if np.any(gid < 0):
        raise ValueError(f"groups {groups} do not cover all {k} columns")
    return (gid[:, None] == gid).astype(int)


def build_degeneracy(lambdas, tol_rel=DEFAULT_DEGENERACY_RTOL, tol_abs=0.0):
    """Group eigenvalues equal within tolerance; returns (D, groups).

    Pairs with |l_i - l_j| <= tol_abs + tol_rel * max|l| are merged, and the
    grouping is the transitive closure so D is a valid equivalence relation.
    """
    lam = np.asarray(lambdas, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    k = lam.size
    thresh = tol_abs + tol_rel * (np.max(np.abs(lam)) if k else 0.0)

    # in ascending order, the closure is broken exactly by gaps above thresh
    order = np.argsort(lam, kind="stable")
    cuts = np.flatnonzero(np.diff(lam[order]) > thresh) + 1
    groups = sorted((sorted(c.tolist()) for c in np.split(order, cuts) if c.size),
                    key=lambda g: g[0])
    return group_mask(groups, k), groups


def _fix_gauge(X):
    """Make each column's largest-|entry| positive (first index wins ties)."""
    X = np.array(X, dtype=float)
    for j in range(X.shape[1]):
        i = int(np.argmax(np.abs(X[:, j])))
        if X[i, j] < 0:
            X[:, j] = -X[:, j]
    return X


def _group_orthonormalize(X, M, groups):
    """Modified Gram-Schmidt in the M-inner product inside each group."""
    X = np.array(X, dtype=float)
    for grp in groups:
        if len(grp) < 2:
            continue
        for a, j in enumerate(grp):
            v = X[:, j]
            for i in grp[:a]:
                mv = M.apply(X[:, i])
                v = v - X[:, i] * (mv @ v)
            nrm = np.sqrt(v @ M.apply(v))
            X[:, j] = v / nrm
    return X


def _finalize(X, lam, which, M, tol_rel=DEFAULT_DEGENERACY_RTOL, tol_abs=0.0):
    D, groups = build_degeneracy(lam, tol_rel=tol_rel, tol_abs=tol_abs)
    X = _group_orthonormalize(X, M, groups)
    X = _fix_gauge(X)
    return EigenResult(k=len(lam), X=X, lambdas=np.asarray(lam, float),
                       D=D, groups=groups, which=which)


def eig_dense(A, M, k, which="smallest", degeneracy_rtol=DEFAULT_DEGENERACY_RTOL,
              degeneracy_atol=0.0):
    """Dense path: k extremal eigenpairs via LAPACK on the materialized pencil."""
    Ad = as_dense_array(A)
    Md = as_dense_array(M)
    n = Ad.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if which not in ("smallest", "largest"):
        raise ValueError(f"which must be 'smallest' or 'largest', got {which!r}")
    sel = [0, k - 1] if which == "smallest" else [n - k, n - 1]
    try:
        lam, X = scipy.linalg.eigh(Ad, Md, subset_by_index=sel)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("M is not positive definite") from exc
    return _finalize(X, lam, which, M, tol_rel=degeneracy_rtol, tol_abs=degeneracy_atol)


def _m_orthonormalize(S, M, drop_tol=1e-12):
    """M-orthonormalize the columns of S, dropping near-dependent directions."""
    MS = M.apply_batch(S)
    G = S.T @ MS
    G = 0.5 * (G + G.T)
    try:
        L = np.linalg.cholesky(G)
        # numpy's solve, not scipy's solve_triangular: numpy and scipy ship
        # separate OpenBLAS thread pools, which contend when a loop alternates
        return np.linalg.solve(L, S.T).T
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(G)
        if w.min() < -drop_tol * max(w.max(), 0.0):
            raise NotPositiveDefinite(
                f"M-Gram matrix has eigenvalue {w.min():.3e} (largest {w.max():.3e})")
        keep = w > drop_tol * max(w.max(), 0.0)
        if not np.any(keep):
            return S[:, :0]
        return S @ (V[:, keep] / np.sqrt(w[keep]))


def _m_orthonormal_fill(S, M, k, rng):
    """M-orthonormalize S, then add random directions until it has k columns."""
    S = _m_orthonormalize(S, M)
    while S.shape[1] < k:
        S = _m_orthonormalize(np.hstack([S, rng.standard_normal((S.shape[0], 1))]), M)
    return S


def eig_iterative(A, M, k, which="smallest", maxiter=500, tol=1e-9,
                  precond=None, seed=0, X0=None,
                  degeneracy_rtol=DEFAULT_DEGENERACY_RTOL, degeneracy_atol=0.0):
    """Matrix-free path: blocked preconditioned conjugate-direction iteration.

    LOBPCG-style Rayleigh-Ritz on the [X, W, P] block with M-orthonormal
    re-orthogonalization each step and soft-locking via residual thresholds.
    For small problems (n <= max(4k, 12)) the operators are materialized and
    the dense path is used, since the blocked subspace would not fit.
    """
    n = A.dim
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, got {maxiter}")
    if not spot_check_spd(M, seed=seed):
        raise NotPositiveDefinite("M failed the positivity spot-check")
    if n <= max(4 * k, 12):
        res = eig_dense(make_dense(as_dense_array(A)), make_dense(as_dense_array(M)),
                        k, which, degeneracy_rtol, degeneracy_atol)
        return res

    rng = np.random.default_rng(seed)
    X = np.array(X0, dtype=float) if X0 is not None else rng.standard_normal((n, k))
    X = _m_orthonormal_fill(X, M, k, rng)
    P = None
    theta = np.zeros(k)

    for it in range(maxiter):
        AX = A.apply_batch(X)
        H = 0.5 * (X.T @ AX + AX.T @ X)
        theta, C = np.linalg.eigh(H)
        X = X @ C
        AX = AX @ C
        MX = M.apply_batch(X)
        R = AX - MX * theta
        resnorms = np.linalg.norm(R, axis=0)
        scale = np.linalg.norm(AX, axis=0) + np.abs(theta) * np.linalg.norm(MX, axis=0)
        scale = np.maximum(scale, 1e-30)
        converged = resnorms <= tol * scale
        if np.all(converged):
            break

        W = precond(R) if precond is not None else R
        blocks = [X, W] + ([P] if P is not None and P.shape[1] > 0 else [])
        S = _m_orthonormal_fill(np.hstack(blocks), M, k, rng)
        AS = A.apply_batch(S)
        T = 0.5 * (S.T @ AS + AS.T @ S)
        w, Cs = np.linalg.eigh(T)
        idx = np.arange(k) if which == "smallest" else np.arange(S.shape[1] - k, S.shape[1])
        Ck = Cs[:, idx]
        Xnew = S @ Ck
        # conjugate direction: the part of the new iterate outside the old X span
        Cp = Ck.copy()
        Cp[:k, :] = 0.0
        P = _m_orthonormalize(S @ Cp, M)
        X = _m_orthonormal_fill(Xnew, M, k, rng)
    else:
        best = _finalize(X, theta, which, M, tol_rel=degeneracy_rtol, tol_abs=degeneracy_atol)
        raise MaxIterExceeded(
            f"eig_iterative: {maxiter} iterations, residuals {resnorms}", payload=best)

    order = np.argsort(theta)
    return _finalize(X[:, order], theta[order], which, M,
                     tol_rel=degeneracy_rtol, tol_abs=degeneracy_atol)
