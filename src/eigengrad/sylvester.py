"""Projected solves of A Y - M Y diag(lambda) = B with singular shifts.

Because the shift matrix is diagonal the system decouples into k shifted
linear solves (A - lambda_j M) y_j = b_j. When lambda_j is an eigenvalue the
operator is singular with nullspace spanned by the eigenvectors of its
degeneracy group; the right-hand side must be orthogonal to that group and
the returned representative is gauged M-orthogonal to it (minimum-norm in M).

Both modes share one :class:`Linearization` of (A, M) at the retrieved
eigenpairs. The dense route works in the tridiagonal basis of the pencil's
:class:`Reduction` (made by ``eig_dense``, or by the first dense solve): each
column costs two O(n^2) maps and one O(n) banded solve. The iterative route
runs MINRES on the deflated operator.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

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


def project_rhs(lin, B):
    """Remove the degenerate-group component: b_j <- b_j - M X_g (X_g^T b_j)."""
    B = np.asarray(B, dtype=float)
    return B - lin.MX @ (lin.eig.D * (lin.eig.X.T @ B))


def _check_solvable(eig, B):
    """Per-column nullspace-component check; raises NotSolvable on violation."""
    defect = np.linalg.norm(eig.D * (eig.X.T @ B), axis=0)
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
    """
    eig = lin.eig
    _check_solvable(eig, B)
    (S, lu, piv, p), red = lin.band, lin.reduction
    n, k = B.shape

    def solve(R):
        rhs = (R - S @ (eig.D * (S.T @ R))).T.ravel()
        Z = scipy.linalg.lapack.dgbtrs(lu, 1, 1, rhs, piv)[0]
        Z[p] = 0.0    # the border's multipliers
        Z = Z.reshape(k, n).T
        return Z - S @ (eig.D * (S.T @ Z))

    R0 = red.to_tri(B)
    W = solve(R0)
    R = R0 - red.d[:, None] * W + W * eig.lambdas     # R0 - (T - lambda_j) W
    R[1:] -= red.e[:, None] * W[:-1]
    R[:-1] -= red.e[:, None] * W[1:]
    if np.any(np.linalg.norm(R, axis=0) > 1e-2 * TOL_SOLV * np.linalg.norm(R0, axis=0)):
        W += solve(R)
    Y = red.from_tri(W)
    residuals = np.linalg.norm(B - lin.A.apply_batch(Y) + lin.M.apply_batch(Y) * eig.lambdas,
                               axis=0)
    _check_split(residuals, B)
    return SylvesterSolution(Y=Y, residuals=residuals, iterations=np.zeros(k, dtype=int))


def solve_iterative(lin, B, maxiter=None):
    """Columnwise MINRES on the shifted symmetric-indefinite operator.

    Each column solves P_L (A - lambda_j M) P_S y = P_L b_j where P_L and
    P_S deflate the column's degenerate group on the range and solution side.
    """
    eig = lin.eig
    _check_solvable(eig, B)
    A, M = lin.A, lin.M
    n, k = B.shape
    maxiter = 20 * n if maxiter is None else maxiter
    Y = np.zeros((n, k))
    residuals = np.zeros(k)
    iterations = np.zeros(k, dtype=int)

    for grp in eig.groups:
        Xg, MXg = eig.X[:, grp], lin.MX[:, grp]

        def proj_left(v):
            return v - MXg @ (Xg.T @ v)

        def proj_sol(v):
            return v - Xg @ (MXg.T @ v)

        for j in grp:
            b = B[:, j]
            bnorm = np.linalg.norm(b)
            if bnorm == 0.0:
                continue
            lam = eig.lambdas[j]

            def opmat(v):
                s = proj_sol(v.reshape(n, 1))
                return proj_left(A.apply_batch(s) - lam * M.apply_batch(s))

            op = scipy.sparse.linalg.LinearOperator((n, n), matvec=opmat, dtype=float)
            bproj = proj_left(b)
            steps = []
            y, info = scipy.sparse.linalg.minres(
                op, bproj, rtol=max(TOL_SOLV * 1e-2, 1e-13), maxiter=maxiter,
                callback=steps.append)
            y = proj_sol(y)[:, None]
            res = np.linalg.norm(A.apply_batch(y) - lam * M.apply_batch(y) - bproj[:, None])
            Y[:, j], residuals[j], iterations[j] = y[:, 0], res, len(steps)
            if info != 0 and res > TOL_SOLV * max(bnorm, 1e-300) * 10:
                raise MaxIterExceeded(
                    f"column {j}: MINRES stopped (info={info}) at residual {res:.3e}",
                    payload=SylvesterSolution(Y=Y, residuals=residuals,
                                              iterations=iterations))
    _check_split(residuals, B)
    return SylvesterSolution(Y=Y, residuals=residuals, iterations=iterations)
