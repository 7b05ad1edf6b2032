"""Projected solves of A Y - M Y diag(lambda) = B with singular shifts.

Because the shift matrix is diagonal the system decouples into k shifted
linear solves (A - lambda_j M) y_j = b_j. When lambda_j is an eigenvalue the
operator is singular with nullspace spanned by the eigenvectors of its
degeneracy group; the right-hand side must be orthogonal to that group and
the returned representative is gauged M-orthogonal to it (minimum-norm in M).

Both modes share one :class:`Linearization` of (A, M) at the retrieved
eigenpairs: the dense route factors a bordered matrix per degeneracy group,
the iterative route runs MINRES on the deflated operator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ClusterSplit, MaxIterExceeded, NotSolvable
from .linop import as_dense_array

DEFAULT_TOL_SOLV = 1e-10


@dataclass
class SylvesterSolution:
    Y: np.ndarray
    residuals: np.ndarray      # per-column ||(A - l_j M) y_j - b_proj_j||
    iterations: np.ndarray     # per-column iteration counts (0 for dense)


class Linearization:
    """(A, M) linearized at the eigenpairs ``eig``; build it with :func:`linearize`.

    Holds M X and, on the dense route, one bordered LU per degeneracy group,
    made by the first solve that needs them; each derivative then costs
    O(n^2 k). It refers to A and M, never copies them.
    """

    def __init__(self, A, M, eig, solver):
        if solver not in ("dense", "iterative"):
            raise ValueError(f"solver must be 'dense' or 'iterative', got {solver!r}")
        self.A, self.M, self.eig, self.solver = A, M, eig, solver
        self.MX = M.apply_batch(eig.X)
        self.lu = None

    def factors(self):
        """The bordered LU of every group (see :meth:`_factor`), made on first call."""
        if self.lu is None:
            dense = as_dense_array(self.A, copy=False), as_dense_array(self.M, copy=False)
            self.lu = [self._factor(grp, *dense) for grp in self.eig.groups]
        return self.lu

    def _factor(self, grp, Ad, Md):
        """LU of K = [[A - s M, M X_g], [X_g^T M, 0]], s the group's mean eigenvalue.

        K is singular exactly when the group lacks an eigenvector of its
        eigenvalue. It is built in one buffer and factored in place as K^T.
        """
        n, m = Ad.shape[0], len(grp)
        K = np.empty((n + m, n + m))
        np.multiply(Md, -np.mean(self.eig.lambdas[grp]), out=K[:n, :n])
        K[:n, :n] += Ad
        K[:n, n:] = self.MX[:, grp]
        K[n:, :n] = self.MX[:, grp].T
        K[n:, n:] = 0.0
        lu, piv, _ = scipy.linalg.lapack.dgetrf(K.T, overwrite_a=True)
        return lu, piv    # a zero pivot is caught by solve_dense's residual

    def jvp(self, t, **opts):
        """Forward derivatives along ``t``; options as for :func:`eigengrad.jvp.jvp`."""
        from .jvp import forward
        return forward(self, t, **opts)

    def vjp(self, c, **opts):
        """Reverse derivatives of ``c``; options as for :func:`eigengrad.vjp.vjp`."""
        from .vjp import reverse
        return reverse(self, c, **opts)


def linearize(A, M, eig, solver="dense"):
    """The :class:`Linearization` of (A, M) at ``eig``, memoized on ``eig``.

    The memo holds one entry, keyed by the identity of A and M and by
    ``solver``; operators are immutable, so a hit is exact. It dies with ``eig``.
    """
    lin = eig._linearization
    if lin is None or lin.A is not A or lin.M is not M or lin.solver != solver:
        # on a copy of eig sharing its arrays: eig -> lin -> eig would be a cycle
        lin = Linearization(A, M, dataclasses.replace(eig), solver)
        eig._linearization = lin
    return lin


def project_rhs(lin, B):
    """Remove the degenerate-group component: b_j <- b_j - M X_g (X_g^T b_j)."""
    B = np.asarray(B, dtype=float)
    return B - lin.MX @ (lin.eig.D * (lin.eig.X.T @ B))


def _check_solvable(eig, B, tol_solv):
    """Per-column nullspace-component check; raises NotSolvable on violation."""
    defect = np.linalg.norm(eig.D * (eig.X.T @ B), axis=0)
    bnorm = np.linalg.norm(B, axis=0)
    bad = np.flatnonzero(defect > tol_solv * bnorm * 10)
    if bad.size:
        raise NotSolvable(int(bad[0]), defect[bad[0]] / bnorm[bad[0]])


def _check_split(residuals, B, tol_solv):
    """Raise ClusterSplit where a solve left a residual above sqrt(tol_solv) |b_j|.

    A solve leaves about eps times the condition number; more means the shift
    is singular beyond the group: lambda_j has eigenvectors not retrieved.
    """
    bnorm = np.maximum(np.linalg.norm(B, axis=0), 1e-300)
    defect = np.nan_to_num(residuals / bnorm, nan=np.inf)
    j = int(np.argmax(defect))
    if defect[j] > np.sqrt(tol_solv):
        raise ClusterSplit(
            f"column {j}: shifted system is singular (relative residual {defect[j]:.3e}); "
            "its eigenvalue has eigenvectors outside the retrieved set", defect=defect[j])


def solve_dense(lin, B, tol_solv=DEFAULT_TOL_SOLV):
    """Columnwise solve of (A - lambda_j M) y_j = b_j through the bordered LU
    of each column's group; the first call on ``lin`` factors.

    The solve at the group's mean shift is refined once at the exact shift
    unless it already meets MINRES's target; the border keeps y_j M-orthogonal
    to its group.
    """
    eig = lin.eig
    _check_solvable(eig, B, tol_solv)
    lu = lin.factors()
    n, k = B.shape
    target = 1e-2 * tol_solv * np.linalg.norm(B, axis=0)
    Z = np.zeros((n + k, k))    # [Y; mu], mu_j nonzero only on the rows of j's group
    R = np.vstack([B, np.zeros((k, k))])
    for _ in range(2):
        for g, grp in enumerate(eig.groups):
            idx = np.ix_(np.r_[:n, n + np.asarray(grp)], grp)
            Z[idx] += scipy.linalg.lapack.dgetrs(*lu[g], R[idx], trans=1)[0]
        Y = Z[:n]
        R = np.vstack([B - lin.A.apply_batch(Y) + lin.M.apply_batch(Y) * eig.lambdas
                       - lin.MX @ Z[n:], eig.D * -(lin.MX.T @ Y)])
        residuals = np.linalg.norm(R, axis=0)
        if np.all(residuals <= target):
            break
    _check_split(residuals, B, tol_solv)
    return SylvesterSolution(Y=Z[:n].copy(), residuals=residuals,
                             iterations=np.zeros(k, dtype=int))


def solve_iterative(lin, B, maxiter=None, tol_solv=DEFAULT_TOL_SOLV):
    """Columnwise MINRES on the shifted symmetric-indefinite operator.

    Each column solves P_L (A - lambda_j M) P_S y = P_L b_j where P_L and
    P_S deflate the column's degenerate group on the range and solution side.
    """
    eig = lin.eig
    _check_solvable(eig, B, tol_solv)
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
                op, bproj, rtol=max(tol_solv * 1e-2, 1e-13), maxiter=maxiter,
                callback=steps.append)
            y = proj_sol(y)[:, None]
            res = np.linalg.norm(A.apply_batch(y) - lam * M.apply_batch(y) - bproj[:, None])
            Y[:, j], residuals[j], iterations[j] = y[:, 0], res, len(steps)
            if info != 0 and res > tol_solv * max(bnorm, 1e-300) * 10:
                raise MaxIterExceeded(
                    f"column {j}: MINRES stopped (info={info}) at residual {res:.3e}",
                    payload=SylvesterSolution(Y=Y, residuals=residuals,
                                              iterations=iterations))
    _check_split(residuals, B, tol_solv)
    return SylvesterSolution(Y=Y, residuals=residuals, iterations=iterations)
