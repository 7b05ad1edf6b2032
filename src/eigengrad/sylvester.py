"""Projected solves of A Y - M Y diag(lambda) = B with singular shifts.

Because the shift matrix is diagonal the system decouples into k shifted
linear solves (A - lambda_j M) y_j = b_j. When lambda_j is an eigenvalue the
operator is singular with nullspace spanned by the eigenvectors of its
degeneracy group; the right-hand side must be orthogonal to that group and
the returned representative is gauged M-orthogonal to it (minimum-norm in M).

Both modes share one :class:`Linearization` of (A, M) at the retrieved
eigenpairs. A right-hand block may hold s directions, s k columns: column c
belongs to eigencolumn c mod k. The dense route works in the tridiagonal basis
of the pencil's :class:`Reduction` (made by ``eig_dense``, or by the first
dense solve): each column costs two O(n^2) maps and one O(n) banded solve. The
iterative route runs MINRES on the deflated operator, all columns in lockstep.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ClusterSplit, MaxIterExceeded, NotPositiveDefinite, NotSolvable
from .linop import as_dense_array

# solves aim at 1e-2 TOL_SOLV |b_j|; NotSolvable and ClusterSplit are gated on it
TOL_SOLV = 1e-10


@dataclass
class SylvesterSolution:
    Y: np.ndarray
    residuals: np.ndarray      # per-column ||(A - l_j M) y_j - b_proj_j||
    iterations: np.ndarray     # per-column iteration counts (0 for dense)


class Reduction:
    """M = L L^T and L^-1 A L^-T = Q T Q^T (dpotrf, dsygst, dsytrd on copies),
    T tridiagonal with diagonal ``d`` and off-diagonal ``e``; holds L and Q's
    reflectors, 2n^2 doubles. The pencil's eigenpairs are (lambda, L^-T Q s)
    for T's (lambda, s), and M-orthogonal x, y map to orthogonal Q^T L^T x, y.
    """

    def __init__(self, A, M):
        lapack = scipy.linalg.lapack
        # A and M are symmetric: their copies' transposes are the Fortran-ordered
        # arrays LAPACK overwrites in place
        self.L, info = lapack.dpotrf(as_dense_array(M).T, lower=1, overwrite_a=1)
        if info:
            raise NotPositiveDefinite(f"M is not positive definite (dpotrf info {info})")
        C = lapack.dsygst(as_dense_array(A).T, self.L, lower=1, overwrite_a=1)[0]
        lwork = int(lapack.dsytrd_lwork(A.dim, lower=1)[0])
        C, self.d, self.e, self.tau, _ = lapack.dsytrd(C, lower=1, lwork=lwork, overwrite_a=1)
        # Q = diag(1, Q~), Q~ the QR-form product of the trailing reflector block
        # (LAPACK's lower dormtr, which scipy does not wrap, is this dormqr)
        self.V = np.asfortranarray(C[1:, :-1])

    def _q(self, Z, trans):
        """Z <- Q Z (``trans`` "N") or Q^T Z ("T"). The minimal workspace keeps
        dormqr unblocked: the blocked path rebuilds a 32-reflector panel factor
        per call, O(32 n^2), which costs more than it saves up to about 8
        columns at n = 1000 (at 24 columns it is 6x faster)."""
        Z[1:] = scipy.linalg.lapack.dormqr("L", trans, self.V, self.tau, Z[1:], Z.shape[1])[0]
        return Z

    # the triangular solves are BLAS dtrsm: OpenBLAS runs LAPACK dtrtrs on all
    # its threads at any size, and at small n the woken threads then spin
    def to_tri(self, B):
        """Q^T L^-1 B."""
        return self._q(scipy.linalg.blas.dtrsm(1.0, self.L, B, lower=1), "T")

    def from_tri(self, W):
        """L^-T Q W."""
        Z = self._q(np.array(W, dtype=float, order="F"), "N")
        return scipy.linalg.blas.dtrsm(1.0, self.L, Z, lower=1, trans_a=1)


class Linearization:
    """(A, M) linearized at the eigenpairs ``eig``; build it with :func:`linearize`.

    Holds M X and, on the dense route, the pencil's :attr:`reduction`, which
    ``eig_dense`` seeds (or the first dense solve makes), and :attr:`band`'s
    LU: each derivative then costs O(n^2 k). Refers to A and M, never copies.
    """

    def __init__(self, A, M, eig, solver):
        if solver not in ("dense", "iterative"):
            raise ValueError(f"solver must be 'dense' or 'iterative', got {solver!r}")
        self.A, self.M, self.eig, self.solver = A, M, eig, solver
        self.MX = M.apply_batch(eig.X)

    @functools.cached_property
    def reduction(self):
        return Reduction(self.A, self.M)

    @functools.cached_property
    def band(self):
        """(S = Q^T L^T X, LU, pivots, p): block j of the LU's matrix is the
        bordered [[T - lambda_j I, E], [E^T, 0]], E the unit vectors at the
        rows p_g where column j's group S_g is largest (pivoted QR of S_g^T).
        Keeping the multipliers in the unknowns at p_g, which E^T w = 0 fixes,
        makes it T - lambda_j I with columns p_g made unit: tridiagonal. It is
        singular exactly when lambda_j has eigenvectors outside the group."""
        eig, red = self.eig, self.reduction
        S, n = red.to_tri(self.MX), red.d.size
        p = []
        for grp in eig.groups:
            pg = scipy.linalg.qr(S[:, grp].T, mode="r", pivoting=True)[1][:len(grp)]
            p += [j * n + pg for j in grp]
        p = np.concatenate(p)
        ab = np.zeros((4, eig.k * n))    # (1, 1)-band storage, row 0 for the LU's fill
        ab[1, 1:] = ab[3, :-1] = np.tile(np.append(red.e, 0.0), eig.k)[:-1]   # 0 between blocks
        ab[2] = (red.d - eig.lambdas[:, None]).ravel()
        ab[1:, p] = [[0.0], [1.0], [0.0]]
        lu, piv, info = scipy.linalg.lapack.dgbtrf(ab, 1, 1)
        if info:
            raise ClusterSplit(
                f"column {(info - 1) // n}: shifted system is singular; its eigenvalue "
                "has eigenvectors outside the retrieved set", defect=np.inf)
        return S, lu, piv, p


def linearize(A, M, eig, solver="dense"):
    """The :class:`Linearization` of (A, M) at ``eig``, memoized on ``eig``.

    The memo holds one entry, keyed by the identity of A and M and by
    ``solver``; operators are immutable, so a hit is exact. It dies with ``eig``.
    """
    lin = eig._linearization
    if lin is None or lin.A is not A or lin.M is not M or lin.solver != solver:
        # on a shallow copy of eig without its memo (eig -> lin -> eig would be
        # a cycle); copying skips the groups check eig already passed
        memo = copy.copy(eig)
        memo._linearization = None
        lin = eig._linearization = Linearization(A, M, memo, solver)
    return lin


def _tiled(eig, m):
    """(D, lambdas) for a block of m = s k columns, column c of eigencolumn c mod k."""
    if m % eig.k:
        raise ValueError(f"a right-hand block needs a multiple of k = {eig.k} columns, got {m}")
    return np.tile(eig.D, m // eig.k), np.tile(eig.lambdas, m // eig.k)


def project_rhs(lin, B):
    """Remove the degenerate-group component: b_j <- b_j - M X_g (X_g^T b_j)."""
    B = np.asarray(B, dtype=float)
    return B - lin.MX @ (_tiled(lin.eig, B.shape[1])[0] * (lin.eig.X.T @ B))


def _check_solvable(eig, B):
    """Per-column nullspace-component check; raises NotSolvable on violation."""
    defect = np.linalg.norm(_tiled(eig, B.shape[1])[0] * (eig.X.T @ B), axis=0)
    bnorm = np.linalg.norm(B, axis=0)
    bad = np.flatnonzero(defect > TOL_SOLV * bnorm * 10)
    if bad.size:
        raise NotSolvable(int(bad[0]), defect[bad[0]] / bnorm[bad[0]])


def _check_split(residuals, B):
    """Raise ClusterSplit where a solve left a residual above sqrt(TOL_SOLV) |b_j|.

    A solve leaves about eps times the condition number; more means the shift
    is singular beyond the group: lambda_j has eigenvectors not retrieved.
    """
    bnorm = np.maximum(np.linalg.norm(B, axis=0), 1e-300)
    defect = np.nan_to_num(residuals / bnorm, nan=np.inf)
    j = int(np.argmax(defect))
    if defect[j] > np.sqrt(TOL_SOLV):
        raise ClusterSplit(
            f"column {j}: shifted system is singular (relative residual {defect[j]:.3e}); "
            "its eigenvalue has eigenvectors outside the retrieved set", defect=defect[j])


def solve_dense(lin, B):
    """Columnwise solve of (A - lambda_j M) y_j = b_j in the tridiagonal basis:
    r = Q^T L^-1 b, w by ``Linearization.band``'s LU (made on the first
    call) with r and w deflated of S_g, so y = L^-T Q w is M-orthogonal to its
    group. Where the group's eigenvalues differ, the border leaves a residual
    that one refinement step removes, unless it already meets MINRES's target.
    s directions map in and out as one block and share one banded solve.
    """
    eig = lin.eig
    _check_solvable(eig, B)
    (S, lu, piv, p), red = lin.band, lin.reduction
    n, m = B.shape
    D, lam = _tiled(eig, m)

    def solve(R):
        # direction i's k columns, stacked, are right-hand side i of the LU
        R = R - S @ (D * (S.T @ R))
        Z = scipy.linalg.lapack.dgbtrs(lu, 1, 1, R.T.reshape(-1, eig.k * n).T, piv)[0]
        Z[p] = 0.0    # the border's multipliers
        Z = Z.T.reshape(m, n).T
        return Z - S @ (D * (S.T @ Z))

    R0 = red.to_tri(B)
    W = solve(R0)
    R = R0 - red.d[:, None] * W + W * lam     # R0 - (T - lambda_j) W
    R[1:] -= red.e[:, None] * W[:-1]
    R[:-1] -= red.e[:, None] * W[1:]
    if np.any(np.linalg.norm(R, axis=0) > 1e-2 * TOL_SOLV * np.linalg.norm(R0, axis=0)):
        W += solve(R)
    Y = red.from_tri(W)
    residuals = np.linalg.norm(B - lin.A.apply_batch(Y) + lin.M.apply_batch(Y) * lam, axis=0)
    _check_split(residuals, B)
    return SylvesterSolution(Y=Y, residuals=residuals, iterations=np.zeros(m, dtype=int))


def solve_iterative(lin, B, maxiter=None):
    """Columnwise MINRES on the shifted symmetric-indefinite operator.

    Each column solves P_L (A - lambda_j M) P_S y = P_L b_j where P_L and
    P_S deflate the column's degenerate group on the range and solution side.
    In lockstep: a step applies A and M once, to the columns still running.
    """
    eig, (n, m) = lin.eig, B.shape
    maxiter = 20 * n if maxiter is None else maxiter
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, got {maxiter}")
    _check_solvable(eig, B)
    A, M, lam = lin.A, lin.M, _tiled(eig, m)[1]
    first = np.tile(np.argmax(eig.D, axis=0), m // eig.k)    # group label: first member
    slices = [(min(g), eig.X[:, g], lin.MX[:, g]) for g in eig.groups]

    def deflate(V, left, rows=slice(None)):
        # P_L (``left``) or P_S on rows V of block columns ``rows``, a GEMV pair per row
        out = np.empty(V.shape)
        for g0, Xg, MXg in slices:
            sel = np.flatnonzero(first[rows] == g0)
            (U, W), Vs = (MXg, Xg) if left else (Xg, MXg), V[sel]
            C = np.matmul(W.T, Vs[:, :, None])    # numpy's U @ C is a slow loop at g = 1
            out[sel] = Vs - (U.T * C[:, 0] if U.shape[1] == 1 else np.matmul(U, C)[:, :, 0])
        return out

    def op(V, rows):    # P_L (A - lambda_j M) P_S on rows V of block columns ``rows``
        S = np.ascontiguousarray(deflate(V, False, rows).T)    # sparse products want C order
        return deflate((A.apply_batch(S) - M.apply_batch(S) * lam[rows]).T, True, rows)

    bproj = deflate(B.T, True)
    Z, iterations, maxed = _minres(op, bproj, maxiter, rtol=max(TOL_SOLV * 1e-2, 1e-13))
    Y = deflate(Z, False).T
    residuals = np.linalg.norm(A.apply_batch(Y) - M.apply_batch(Y) * lam - bproj.T, axis=0)
    sol = SylvesterSolution(Y=Y, residuals=residuals, iterations=iterations)
    bad = np.flatnonzero(maxed & (residuals > TOL_SOLV * np.linalg.norm(B, axis=0) * 10))
    if bad.size:
        raise MaxIterExceeded(f"column {bad[0]}: MINRES reached maxiter={maxiter} at "
                              f"residual {residuals[bad[0]]:.3e}", payload=sol)
    _check_split(residuals, B)
    return sol


def _dots(U, V):    # rowwise U_i . V_i, one BLAS ddot each: np.inner's sums
    return np.matmul(U[:, None, :], V[:, :, None])[:, 0, 0]


def _minres(op, B, maxiter, rtol):
    """MINRES (Paige & Saunders 1975) on all rows of B at once, rounding as
    scipy.sparse.linalg.minres does (x0 = 0, no preconditioner; ddot, libm pow).
    ``op(V, rows)`` applies rows ``rows``'s operators to V's rows; a row leaves
    the block when it stops. Returns (X, iterations, rows stopped by ``maxiter``)."""
    (m, n), eps = B.shape, np.finfo(float).eps
    out, iterations, maxed = np.zeros((m, n)), np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    beta1 = np.sqrt(_dots(B, B))
    rows = np.flatnonzero(beta1 > 0)     # a zero row stops at x = 0 before its first step
    beta1 = beta = phibar = beta1[rows]
    y = r1 = r2 = B[rows]
    # in place, products in t: at n = 4000 temporaries cost 3x the arithmetic in page faults
    x, w, w2, buf = (np.zeros_like(y) for _ in range(4))
    oldb = dbar = epsln = tnorm2 = gmax = sn = np.zeros(rows.size)
    gmin, cs, itn = np.full(rows.size, np.finfo(float).max), np.full(rows.size, -1.0), 0
    while rows.size:
        itn, t = itn + 1, buf[:rows.size]
        v = (1.0 / beta)[:, None] * y
        y = op(v, rows)    # the Lanczos step
        if itn >= 2:
            y -= np.multiply((beta / oldb)[:, None], r1, out=t)
        alfa = _dots(v, y)
        y -= np.multiply((alfa / beta)[:, None], r2, out=t)
        r1, r2 = r2, y
        oldb, beta = beta, np.sqrt(_dots(y, y))
        tnorm2 = tnorm2 + np.float_power([alfa, oldb, beta], 2).sum(axis=0)
        # apply the previous rotation, then make the next one
        oldeps, delta, gbar = epsln, cs * dbar + sn * alfa, sn * dbar - cs * alfa
        epsln, dbar = sn * beta, -cs * beta
        root, gamma = (np.sqrt(_dots(*2 * [np.column_stack([gbar, b])])) for b in (dbar, beta))
        gamma = np.maximum(gamma, eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2, w = w2, w, v - np.multiply(oldeps[:, None], w2, out=t)    # update x
        w -= np.multiply(delta[:, None], w2, out=t)
        w *= (1.0 / gamma)[:, None]
        x += np.multiply(phi[:, None], w, out=t)
        gmax, gmin = np.maximum(gmax, gamma), np.minimum(gmin, gamma)
        # scipy's tests, the last for b an eigenvector; 1 + test <= 1 is implied at rtol >= eps
        Anorm, ynorm = np.sqrt(tnorm2), np.sqrt(_dots(x, x))
        test1 = np.divide(phibar, Anorm * ynorm, out=np.full(rows.size, np.inf),
                          where=Anorm * ynorm > 0)
        met = ((test1 <= rtol) | (root / Anorm <= rtol) | (Anorm * ynorm * eps >= beta1)
               | (gmax / gmin >= 0.1 / eps) | ((itn == 1) & (beta / beta1 <= 10 * eps)))
        stop = met | (itn >= maxiter)
        if stop.any():
            out[rows[stop]], iterations[rows[stop]], maxed[rows[stop]] = x[stop], itn, ~met[stop]
            (rows, y, r1, r2, x, w, w2, beta, beta1, oldb, phibar, dbar, epsln, tnorm2, gmax,
             gmin, cs, sn) = (arr[~stop] for arr in (
                rows, y, r1, r2, x, w, w2, beta, beta1, oldb, phibar, dbar, epsln, tnorm2,
                gmax, gmin, cs, sn))
    return out, iterations, maxed
