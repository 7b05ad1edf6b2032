"""Partial eigensolvers for the symmetric generalized pencil A x = lambda M x.

Eigenvectors are returned M-orthonormal (X^T M X = I) with a deterministic
gauge: each column's largest-magnitude entry is made positive. Repeated
eigenvalues are grouped (transitive closure within tolerance); the groups,
a partition of the columns, are the one record of that structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._blas import scipy_linalg
from .errors import DimensionMismatch, MaxIterExceeded, NonFiniteError, NotPositiveDefinite
from .linop import SymmetricOperator, check_pencil, is_count
from .sylvester import Reduction, linearize

DEFAULT_DEGENERACY_RTOL = 1e-8
# eig_iterative iterates on this many columns beyond the k it returns
GUARD = 2
# a "smallest" LOBPCG solve without a preconditioner gets q(A): LANCZOS_STEPS
# Lanczos steps bound A's spectrum by [theta_min, beta], and q(A) r is d steps
# of Chebyshev iteration for A z = r on that interval, d the smallest odd
# degree whose contraction 1 / T_d(sigma) is at most CHEB_CONTRACTION, and at
# most CHEB_MAX_DEGREE. Odd, so q > 0 on the whole real line and q(A) is SPD
# for every symmetric A
LANCZOS_STEPS = 12
CHEB_CONTRACTION = 0.3
CHEB_MAX_DEGREE = 15


@dataclass
class EigenResult:
    """k eigenpairs plus degeneracy structure of the retrieved spectrum.

    DimensionMismatch unless X is 2-D with one column per eigenvalue,
    NonFiniteError unless X and lambdas are finite, ValueError unless
    ``groups`` partition the columns and ``which`` is "smallest" or
    "largest"."""

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
        if np.ndim(self.X) != 2 or np.shape(self.X)[1] != self.k:
            raise DimensionMismatch(f"X has shape {np.shape(self.X)}, expected n x {self.k} "
                                    f"for {self.k} eigenvalues")
        if not (np.isfinite(self.X).all() and np.isfinite(self.lambdas).all()):
            raise NonFiniteError("eigenpairs X and lambdas must be finite")
        self.D = group_mask(self.groups, self.k)
        check_which(self.which)


def check_which(which):
    """ValueError unless ``which`` is "smallest" or "largest"."""
    if which not in ("smallest", "largest"):
        raise ValueError(f"which must be 'smallest' or 'largest', got {which!r}")


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
    ValueError unless the eigenvalues are finite and 0 <= tol_rel < inf.
    """
    lam = np.asarray(lambdas, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    if not 0 <= tol_rel < np.inf:
        raise ValueError(f"need 0 <= tol_rel < inf, got tol_rel={tol_rel}")
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
    returns n. The pencil follows :func:`~eigengrad.linop.check_pencil`, and
    k must be a count (:func:`~eigengrad.linop.is_count`) below n."""
    n = check_pencil(A, M)
    if not is_count(k) or k >= n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    check_which(which)
    return n


def eig_dense(A, M, k, which="smallest"):
    """Dense path: k extremal eigenpairs through the pencil's tridiagonal
    :class:`~eigengrad.sylvester.Reduction` (dpotrf, dsygst, dsytrd), the
    eigenvectors of T by bisection and inverse iteration, then x = L^-T Q s.

    The reduction is kept: it seeds the linearization memoized on the
    result, so every dense derivative reuses it. It holds n^2 + 128 n
    doubles while the result lives; setting it up peaks at 2 n^2.
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
    """q(A) as an operator, 0 < lo <= hi: d steps of Chebyshev iteration for
    A z = r from z = 0 on [lo, hi] (Saad 2003, Algorithm 12.1), so
    1 - x q(x) = T_d(y(x)) / T_d(sigma), y(x) = (hi + lo - 2 x) / (hi - lo),
    sigma = y(0). d is the smallest odd degree with 1 / T_d(sigma) at most
    CHEB_CONTRACTION, capped at CHEB_MAX_DEGREE; a collapsed interval,
    lo = hi, gets d = 1, q(A) = 1 / lo. Costs d - 1 A applies per column."""
    theta, delta = (hi + lo) / 2, (hi - lo) / 2
    sigma = theta / delta if delta > 0 else math.inf
    # T_d(sigma) = cosh(d arccosh sigma) for sigma >= 1
    need = (math.acosh(1 / CHEB_CONTRACTION) / math.acosh(sigma) if sigma > 1
            else math.inf)
    degree = next((d for d in range(1, CHEB_MAX_DEGREE, 2) if d >= need), CHEB_MAX_DEGREE)

    def precond(R):
        R = np.array(R, order="C")
        D = R / theta
        Z, rho = D.copy(), 1 / sigma
        for _ in range(degree - 1):
            R -= A.apply_batch(D)
            rho_prev, rho = rho, 1 / (2 * sigma - rho)
            D *= rho * rho_prev
            D += (2 * rho / delta) * R
            Z += D
        return Z
    return SymmetricOperator(A.dim, None, precond)


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
    explicit residual meets ``tol``, 0 < tol < inf, or raises MaxIterExceeded
    after ``maxiter`` steps, an integer >= 1 (ValueError otherwise). Small
    problems (n <= max(4k, 12)) are materialized and solved densely.

    Before either branch, at most LANCZOS_STEPS single-column M applies from a
    random vector of ``seed`` (:func:`_lanczos_bounds`, as for A's bounds
    below) probe M: NotPositiveDefinite unless the smallest Ritz value is
    above 1e-12 of the bound on the largest. Ritz values interlace, so an SPD
    M of condition up to 1e8 passes; a negative eigenvalue separated from the
    rest of M's spectrum fails, and one buried inside it can pass.

    ``precond`` is a :class:`~eigengrad.linop.SymmetricOperator`, taken as
    is (DimensionMismatch before any apply unless its ``dim`` is n), or a map
    of n x m blocks, applied through one, so a product of the wrong shape
    raises DimensionMismatch. On either branch it seeds the
    linearization memoized on the result: its iterative derivative solves
    for ``which="smallest"`` run PCG with it.

    Without one, a ``"smallest"`` LOBPCG solve builds a default: LANCZOS_STEPS
    single-column A applies bound A's spectrum, and if the smallest Ritz value
    theta_min is positive, ``precond`` is the Chebyshev polynomial q(A) on
    [theta_min, beta] (beta: the largest Ritz value plus the last residual
    norm) of the smallest odd degree d whose contraction 1 / T_d(sigma),
    sigma = (beta + theta_min) / (beta - theta_min), is at most
    CHEB_CONTRACTION, and at most CHEB_MAX_DEGREE. It costs d - 1 A applies
    per column and is SPD for any symmetric A. It seeds the linearization as
    a caller's does. ``"largest"``, the dense branch and an A the Lanczos
    steps show indefinite get no default; passing any ``precond``,
    ``lambda R: R`` included, runs the iteration without it.
    """
    n = _check_request(A, M, k, which)
    if not is_count(maxiter):
        raise ValueError(f"maxiter must be an integer >= 1, got {maxiter!r}")
    if not 0 < tol < np.inf:
        raise ValueError(f"need 0 < tol < inf, got tol={tol}")
    if isinstance(precond, SymmetricOperator):
        if precond.dim != n:
            raise DimensionMismatch(f"precond has dim {precond.dim}, A has dim {n}")
    elif precond is not None:
        precond = SymmetricOperator(n, None, precond)
    low, high = _lanczos_bounds(M, seed)
    if low <= 1e-12 * high:
        raise NotPositiveDefinite(f"M failed the positivity probe: Lanczos Ritz values "
                                  f"from {low:.3e}, bound {high:.3e}")
    if n <= max(4 * k, 12):
        eig = eig_dense(A, M, k, which)
    else:
        if precond is None and which == "smallest":
            low, beta = _lanczos_bounds(A, seed)
            if low > 0:    # else A is not positive definite: no default
                precond = _chebyshev(A, low, beta)
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
        W = precond.apply_batch(R) if precond is not None else R
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
