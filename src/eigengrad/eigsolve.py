"""Partial eigensolvers for the symmetric generalized pencil A x = lambda M x.

Eigenvectors are returned M-orthonormal (X^T M X = I) with a deterministic
gauge: each column's largest-magnitude entry is made positive. Repeated
eigenvalues are grouped (transitive closure within tolerance); the groups,
a partition of the columns, are the one record of that structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import scipy_linalg
from .errors import DimensionMismatch, MaxIterExceeded, NotPositiveDefinite
from .linop import check_operators, spot_check_spd
from .sylvester import Reduction, linearize

DEFAULT_DEGENERACY_RTOL = 1e-8
# eig_iterative iterates on this many columns beyond the k it returns
GUARD = 2
# a "smallest" LOBPCG solve without a preconditioner gets q(A): LANCZOS_STEPS
# Lanczos steps bound A's spectrum by beta, and q(A) r is CHEB_DEGREE steps of
# Chebyshev iteration for A z = r on [beta / CHEB_RATIO, beta]. The degree is
# odd, so q > 0 on the whole real line and q(A) is SPD for every symmetric A
LANCZOS_STEPS = 12
CHEB_DEGREE = 5
CHEB_RATIO = 30


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


def _finalize(X, lam, which):
    """The result for X, which both solvers deliver M-orthonormal, grouped
    within DEFAULT_DEGENERACY_RTOL."""
    return EigenResult(X=_fix_gauge(X), lambdas=np.asarray(lam, float),
                       groups=build_degeneracy(lam), which=which)


def _check_request(A, M, k, which):
    """The checks both eigensolvers make on (A, M, k, which) before any work;
    returns n."""
    check_operators(A=A, M=M)
    n = A.dim
    if M.dim != n:
        raise DimensionMismatch(f"A has dim {n} but M has dim {M.dim}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if which not in ("smallest", "largest"):
        raise ValueError(f"which must be 'smallest' or 'largest', got {which!r}")
    return n


def eig_dense(A, M, k, which="smallest"):
    """Dense path: k extremal eigenpairs through the pencil's tridiagonal
    :class:`~eigengrad.sylvester.Reduction` (dpotrf, dsygst, dsytrd), the
    eigenvectors of T by bisection and inverse iteration, then x = L^-T Q s.

    The reduction is kept: it seeds the linearization memoized on the
    result, so every dense derivative reuses it.
    """
    n = _check_request(A, M, k, which)
    red = Reduction(A, M)
    sel = (0, k - 1) if which == "smallest" else (n - k, n - 1)
    lam, S = scipy_linalg().eigh_tridiagonal(red.d, red.e, select="i", select_range=sel)
    eig = _finalize(red.from_tri(S), lam, which)
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


def _lanczos_bounds(A, seed):
    """(smallest Ritz value, largest Ritz value + last residual norm) of at
    most LANCZOS_STEPS Lanczos steps on A, fully reorthogonalized, from a
    random vector of ``seed``: one A apply per step."""
    steps = min(LANCZOS_STEPS, A.dim)
    V, AV = np.empty((steps, A.dim)), np.empty((steps, A.dim))   # rows: Lanczos vectors
    v = np.random.default_rng(seed).standard_normal(A.dim)
    for j in range(steps):
        V[j] = v / np.linalg.norm(v)
        AV[j] = A.apply_batch(V[j][:, None])[:, 0]
        v = AV[j].copy()
        for _ in range(2):    # twice is enough (Giraud et al. 2005)
            v -= V[:j + 1].T @ (V[:j + 1] @ v)
        resid = np.linalg.norm(v)
        if resid <= 1e-12 * np.linalg.norm(AV[j]):    # an invariant subspace
            break
    theta = np.linalg.eigvalsh(V[:j + 1] @ AV[:j + 1].T)
    return theta[0], theta[-1] + resid


def _chebyshev(A, lo, hi):
    """q(A) as a block map, 0 < lo < hi: CHEB_DEGREE steps of Chebyshev
    iteration for A z = r from z = 0 on [lo, hi] (Saad 2003, Algorithm 12.1),
    so 1 - x q(x) = T_d(y(x)) / T_d(y(0)), y(x) = (hi + lo - 2 x) / (hi - lo).
    Costs CHEB_DEGREE - 1 A applies per column."""
    theta, delta = (hi + lo) / 2, (hi - lo) / 2
    sigma = theta / delta

    def precond(R):
        R = np.array(R, dtype=float, order="C")
        D = R / theta
        Z, rho = D.copy(), 1 / sigma
        for _ in range(CHEB_DEGREE - 1):
            R -= A.apply_batch(D)
            rho_prev, rho = rho, 1 / (2 * sigma - rho)
            D *= rho * rho_prev
            D += (2 * rho / delta) * R
            Z += D
        return Z
    return precond


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

    Without one, a ``"smallest"`` LOBPCG solve builds a default: LANCZOS_STEPS
    single-column A applies bound A's spectrum, and if the smallest Ritz value
    is positive, ``precond`` is the Chebyshev polynomial q(A) on
    [beta / CHEB_RATIO, beta] (beta: the largest Ritz value plus the last
    residual norm), which costs CHEB_DEGREE - 1 A applies per column and is
    SPD for any symmetric A. It seeds the linearization as a caller's does.
    On the 63 x 63 membrane (k = 6) it cuts the steps from about 180 to about
    40 and the M-applied columns from about 1,420 to about 350, for about
    1,580 A-applied columns instead of 1,420. ``"largest"``, the dense branch
    and an A the Lanczos steps show indefinite get no default; passing any
    ``precond``, ``lambda R: R`` included, runs the iteration without it.
    """
    n = _check_request(A, M, k, which)
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, got {maxiter}")
    if not spot_check_spd(M, seed=seed):
        raise NotPositiveDefinite("M failed the positivity spot-check")
    if n <= max(4 * k, 12):
        eig = eig_dense(A, M, k, which)
    else:
        if precond is None and which == "smallest":
            low, beta = _lanczos_bounds(A, seed)
            if low > 0:    # else A is not positive definite: no default
                precond = _chebyshev(A, beta / CHEB_RATIO, beta)
        eig = _lobpcg(A, M, k, which, maxiter, tol, precond, seed)
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
