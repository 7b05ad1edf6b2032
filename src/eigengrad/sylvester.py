"""Projected solves of A Y - M Y diag(lambda) = B with singular shifts.

Because the shift matrix is diagonal the system decouples into k shifted
linear solves (A - lambda_j M) y_j = b_j. When lambda_j is an eigenvalue the
operator is singular with nullspace spanned by the eigenvectors of its
degeneracy group; a solver takes any b_j, projects it off that group first
(:func:`project_rhs`), solves for the projection and gauges y_j M-orthogonal
to the group (minimum-norm in M). Its targets, MaxIterExceeded and
ClusterSplit are all measured against the projected column.

Both modes and both routes share one :class:`Linearization` of (A, M) at the
retrieved eigenpairs. A right-hand block may hold s directions, s k columns:
column c belongs to eigencolumn c mod k. The dense route works in the
tridiagonal basis of the pencil's :class:`Reduction` (made by ``eig_dense``,
or by the first dense solve): each column costs two O(n^2) maps, blocked
numpy GEMMs, and one O(n) banded solve. The iterative route runs one pass of
CG on the operator deflated of all k retrieved pairs, all columns in
lockstep, preconditioned with the primal's preconditioner if any; the
primal's residual enters its right-hand side, so the one pass serves inexact
pairs too."""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._blas import scipy_one_thread
from .errors import (ClusterSplit, DimensionMismatch, MaxIterExceeded, NotAnOperator,
                     NotPositiveDefinite)
from .linop import SymmetricOperator, as_dense_array

# solves aim at 1e-2 TOL_SOLV |b_j|, b_j projected; ClusterSplit is gated on it
TOL_SOLV = 1e-10
# block size of the Reduction's maps: its diagonal blocks of L and its
# compact-WY reflector blocks
NB = 64
_STRICT_UPPER = ~np.tri(NB, dtype=bool)


@dataclass
class SylvesterSolution:
    Y: np.ndarray
    residuals: np.ndarray      # per-column ||b_j - (A - l_j M) y_j||, off the group
    iterations: np.ndarray     # per-column iteration counts (0 for dense)


class Reduction:
    """M = L L^T and L^-1 A L^-T = Q T Q^T (dpotrf, dsygst, dsytrd on copies),
    T tridiagonal with diagonal ``d`` and off-diagonal ``e``. The pencil's
    eigenpairs are (lambda, L^-T Q s) for T's (lambda, s), and M-orthogonal
    x, y map to orthogonal Q^T L^T x, y.

    Holds 2n^2 doubles, LAPACK's output arrays set up in place: ``L`` with
    its NB x NB diagonal blocks replaced by their inverses, and Q = diag(1, Q~)
    in compact-WY form (Schreiber & Van Loan 1989): ``wy`` lists (V_b, T_b)
    with Q~ = prod_b (I - V_b T_b V_b^T) over blocks of NB of dsytrd's
    reflectors, V_b unit lower trapezoidal, a view of the reduced matrix, and
    T_b upper triangular. :meth:`to_tri` and :meth:`from_tri` are then numpy
    GEMMs alone, O(n^2) per column: they run on the BLAS pool the operator
    products and the caller's code use, where scipy's LAPACK would be a
    second pool that each switch waits on. The set-up's own LAPACK calls run
    with scipy's OpenBLAS held at one thread (:mod:`._blas`): they do not
    wait on numpy's workers still spinning from the caller's products, and
    leave no scipy worker spinning beside the numpy work that follows.
    """

    def __init__(self, A, M):
        with scipy_one_thread():
            lapack, blas = scipy.linalg.lapack, scipy.linalg.blas
            # A and M are symmetric: their copies' transposes are the Fortran-ordered
            # arrays LAPACK overwrites in place
            L, info = lapack.dpotrf(as_dense_array(M).T, lower=1, overwrite_a=1)
            if info:
                raise NotPositiveDefinite(f"M is not positive definite (dpotrf info {info})")
            C = lapack.dsygst(as_dense_array(A).T, L, lower=1, overwrite_a=1)[0]
            lwork = int(lapack.dsytrd_lwork(A.dim, lower=1)[0])
            C, self.d, self.e, tau, _ = lapack.dsytrd(C, lower=1, lwork=lwork, overwrite_a=1)
            n = self.d.size
            for j in range(0, n, NB):    # dtrtri overwrites a block that is all of L
                b, w = slice(j, j + NB), min(NB, n - j)
                inv = lapack.dtrtri(L[b, b], lower=1, overwrite_c=1)[0]
                inv[_STRICT_UPPER[:w, :w]] = 0.0    # M's entries
                L[b, b] = inv
            self.L, self.wy = L, []
            # reflector j is column j of V below its row j, with a unit at row j,
            # where dsytrd left e_j; above that row sit d and A's entries
            V = C[1:, :-1]
            for j in range(0, n - 1, NB):
                b, w = slice(j, j + NB), min(NB, n - 1 - j)
                top = V[b, b]
                top[_STRICT_UPPER[:w, :w]] = 0.0
                np.fill_diagonal(top, 1.0)
                # T_b = (I + D_b striu(V_b^T V_b))^-1 D_b, D_b = diag(tau_b), valid
                # where tau is 0 too; dsyrk leaves the lower triangle 0. An inverse
                # and not dtrsm: OpenBLAS threads dtrsm from 32 columns, and at
                # small n its workers then wait on numpy's spinning ones
                S = blas.dsyrk(1.0, V[j:, b], trans=1)
                S *= tau[b, None]
                np.fill_diagonal(S, 1.0)
                T = lapack.dtrtri(S, overwrite_c=1)[0]
                T *= tau[b]
                self.wy.append((V[j:, b], T))

    def to_tri(self, B):
        """Q^T L^-1 B."""
        L, n = self.L, self.d.size
        Z = np.empty(B.shape)
        for j in range(0, n, NB):    # block forward substitution
            b = slice(j, j + NB)
            Z[b] = L[b, b] @ (B[b] - L[b, :j] @ Z[:j])
        for V, T in self.wy:
            Zb = Z[-V.shape[0]:]
            Zb -= V @ (T.T @ (V.T @ Zb))
        return Z

    def from_tri(self, W):
        """L^-T Q W."""
        L, n = self.L, self.d.size
        Z = np.array(W, dtype=float)
        for V, T in reversed(self.wy):
            Zb = Z[-V.shape[0]:]
            Zb -= V @ (T @ (V.T @ Zb))
        for j in reversed(range(0, n, NB)):    # block back substitution
            b, rest = slice(j, j + NB), slice(j + NB, None)
            Z[b] = L[b, b].T @ (Z[b] - L[rest, b].T @ Z[rest])
        return Z


class Linearization:
    """(A, M) linearized at the eigenpairs ``eig``; build it with :func:`linearize`.

    Holds M X, the pencil's :attr:`reduction`, which ``eig_dense`` seeds (or
    the first dense solve makes), and :attr:`band`'s LU, with which each dense
    derivative costs O(n^2 k), and ``precond``, ``eig_iterative``'s, for the
    iterative solves. Both routes share it. Refers to A and M, never copies.
    """

    def __init__(self, A, M, eig):
        for name, op in (("A", A), ("M", M)):
            if not isinstance(op, SymmetricOperator):
                raise NotAnOperator(name, op)
        self.A, self.M, self.eig = A, M, eig
        self.MX = M.apply_batch(eig.X)
        self.precond = None

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


def linearize(A, M, eig):
    """The :class:`Linearization` of (A, M) at ``eig``, memoized on ``eig``.

    The memo holds one entry, keyed by the identity of A and M; operators are
    immutable, so a hit is exact. Both routes use it, so switching ``solver``
    keeps the reduction and the preconditioner. It dies with ``eig``.
    """
    lin = eig._linearization
    if lin is None or lin.A is not A or lin.M is not M:
        # on a shallow copy of eig without its memo (eig -> lin -> eig would be
        # a cycle); copying skips the groups check eig already passed
        memo = copy.copy(eig)
        memo._linearization = None
        lin = eig._linearization = Linearization(A, M, memo)
    return lin


def check_solver(solver):
    """ValueError unless ``solver`` names a route: "dense" or "iterative"."""
    if solver not in ("dense", "iterative"):
        raise ValueError(f"solver must be 'dense' or 'iterative', got {solver!r}")


def _tiled(eig, m):
    """(D, lambdas) for a block of m = s k columns, column c of eigencolumn c mod k."""
    if m % eig.k:
        raise DimensionMismatch(f"a right-hand block needs a multiple of k = {eig.k} columns, "
                                f"got {m}")
    return np.tile(eig.D, m // eig.k), np.tile(eig.lambdas, m // eig.k)


def project_rhs(lin, B):
    """Remove the degenerate-group component: b_j <- b_j - M X_g (X_g^T b_j)."""
    B = np.asarray(B, dtype=float)
    return B - lin.MX @ (_tiled(lin.eig, B.shape[1])[0] * (lin.eig.X.T @ B))


def _residual(lin, B, Y, lam):
    """b_j - (A - lambda_j M) y_j projected off column j's group: the part of
    B a solve answers for, so both routes measure the same thing."""
    return project_rhs(lin, B - (lin.A.apply_batch(Y) - lin.M.apply_batch(Y) * lam))


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
    r = Q^T L^-1 b deflated of S_g, w by ``Linearization.band``'s LU (made on
    the first call) deflated of S_g too, so y = L^-T Q w is M-orthogonal to its
    group. Where the group's eigenvalues differ, the border leaves a residual
    that one refinement step removes, unless it already meets the CG target.
    s directions map in and out as one block and share one banded solve.
    """
    B = project_rhs(lin, B)
    eig = lin.eig
    (S, lu, piv, p), red = lin.band, lin.reduction
    n, m = B.shape
    D, lam = _tiled(eig, m)

    def deflate(R):    # off each column's group S_g
        return R - S @ (D * (S.T @ R))

    def solve(R):
        # direction i's k columns, stacked, are right-hand side i of the LU
        Z = scipy.linalg.lapack.dgbtrs(lu, 1, 1, R.T.reshape(-1, eig.k * n).T, piv)[0]
        Z[p] = 0.0    # the border's multipliers
        return deflate(Z.T.reshape(m, n).T)

    R0 = deflate(red.to_tri(B))
    W = solve(R0)
    R = R0 - red.d[:, None] * W + W * lam     # R0 - (T - lambda_j) W
    R[1:] -= red.e[:, None] * W[:-1]
    R[:-1] -= red.e[:, None] * W[1:]
    R = deflate(R)
    if np.any(np.linalg.norm(R, axis=0) > 1e-2 * TOL_SOLV * np.linalg.norm(R0, axis=0)):
        W += solve(R)
    Y = red.from_tri(W)
    residuals = np.linalg.norm(_residual(lin, B, Y, lam), axis=0)
    _check_split(residuals, B)
    return SylvesterSolution(Y=Y, residuals=residuals, iterations=np.zeros(m, dtype=int))


def solve_iterative(lin, B, maxiter=None):
    """Columnwise CG on the shifted operator deflated of all k retrieved pairs.

    With y_j = z_j + X c_j, z_j M-orthogonal to X, CG solves
    P_L (A - lambda_j M) P_S z = P_L (b_j - G (inv o C)) for z (P_L = I - M X X^T,
    P_S = P_L^T, C = X^T B, G = P_L A X the primal's residual off span(M X),
    inv_ij = 1/(lambda_i - lambda_j) outside column j's group and 0 in it), and
    c = inv o (C - G^T Z) gives the rest: the block system's Schur coupling up
    to O(|G|^2 / gap), so one pass serves an inexact primal too. The operator
    is definite when no eigenvalue on the retrieved side of lambda_j is missing;
    the linearization's ``precond`` makes it PCG for "smallest". ``maxiter``
    bounds the CG steps of each column.
    """
    B = project_rhs(lin, B)
    eig, (n, m) = lin.eig, B.shape
    maxiter = 20 * n if maxiter is None else maxiter
    if maxiter < 1:
        raise ValueError(f"maxiter must be >= 1, got {maxiter}")
    A, M, X, MX = lin.A, lin.M, eig.X, lin.MX
    D, lam = _tiled(eig, m)
    inv = np.where(D == 1, 0.0, 1.0 / np.where(D == 1, 1.0, eig.lambdas[:, None] - lam))
    sign, precond = (1.0, lin.precond) if eig.which == "smallest" else (-1.0, None)
    bnorm = np.linalg.norm(B, axis=0)

    def op(V, cols):    # P_L (A - lambda_j M) on block columns ``cols``, V in range(P_S)
        Q = A.apply_batch(V) - M.apply_batch(V) * lam[cols]
        Q -= MX @ (X.T @ Q)
        return Q

    def prec(R):    # P_S precond, applied to R in the range of P_L
        Z = R if precond is None else np.asarray(precond(R), dtype=float)
        return Z - X @ (MX.T @ Z)

    G = A.apply_batch(X)
    G -= MX @ (X.T @ G)
    C = X.T @ B
    # projected last: G (inv o C) has roundoff along M X that inv can make large
    R = B - G @ (inv * C)
    R -= MX @ (X.T @ R)
    Z, iterations, maxed = _cg(op, prec, sign, R, 1e-2 * TOL_SOLV * bnorm, maxiter, bnorm)
    Y = Z + X @ (inv * (C - G.T @ Z))
    residuals = np.linalg.norm(_residual(lin, B, Y, lam), axis=0)
    sol = SylvesterSolution(Y=Y, residuals=residuals, iterations=iterations)
    bad = np.flatnonzero(maxed & (residuals > TOL_SOLV * bnorm * 10))
    if bad.size:
        raise MaxIterExceeded(f"column {bad[0]}: CG reached maxiter={maxiter} at "
                              f"residual {residuals[bad[0]]:.3e}", payload=sol)
    _check_split(residuals, B)
    return sol


def _cg(op, prec, sign, R, target, maxiter, bnorm):
    """CG (Hestenes & Stiefel 1952) from x = 0 on all columns of R in lockstep:
    ``op(V, cols)`` applies block columns ``cols``'s operators, definite of
    ``sign``, ``prec`` preconditions, and column c leaves the block when its
    recursive residual reaches ``target[c]`` or after ``maxiter`` steps.
    Curvature at roundoff of the largest seen, or below, raises ClusterSplit
    (defect: the column's least relative residual). Returns (X, iterations,
    columns stopped by ``maxiter``)."""
    (n, m), eps = R.shape, np.finfo(float).eps
    out, iterations, maxed = np.zeros((n, m)), np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    rnorm = np.linalg.norm(R, axis=0)
    cols = np.flatnonzero(rnorm > target)
    rmin, target = rnorm[cols], target[cols]
    r = np.ascontiguousarray(R[:, cols])    # n x m' in C order, as sparse products want
    x, t, p = np.zeros_like(r), np.empty_like(r), prec(r)    # products go to t
    rho, kmax, itn = np.einsum("ij,ij->j", r, p), np.zeros(cols.size), 0
    while cols.size:
        itn += 1
        q = op(p, cols)
        curv = np.einsum("ij,ij->j", p, q)
        kappa = sign * curv / np.einsum("ij,ij->j", p, p)    # Rayleigh quotient along p
        np.maximum(kmax, kappa, out=kmax)
        j = np.argmax(kappa <= n * eps * kmax)
        if kappa[j] <= n * eps * kmax[j]:
            raise ClusterSplit(f"column {cols[j]}: curvature {kappa[j]:.3e} of {kmax[j]:.3e}; the "
                               "shifted operator is not definite: an eigenvalue was missed",
                               defect=rmin[j] / bnorm[cols[j]])
        alpha = rho / curv
        x += np.multiply(p, alpha, out=t)
        r -= np.multiply(q, alpha, out=q)
        rnorm = np.sqrt(np.einsum("ij,ij->j", r, r))
        np.minimum(rmin, rnorm, out=rmin)
        met = rnorm <= target
        stop = met | (itn == maxiter)
        if stop.any():
            done, keep = cols[stop], ~stop
            out[:, done], iterations[done], maxed[done] = x[:, stop], itn, ~met[stop]
            cols, rho, kmax, rmin, target = (a[keep] for a in (cols, rho, kmax, rmin, target))
            x, r, p, t = x[:, keep], r[:, keep], p[:, keep], t[:, keep]
            if not cols.size:
                break
        z = prec(r)
        rho_prev, rho = rho, np.einsum("ij,ij->j", r, z)
        z += np.multiply(p, rho / rho_prev, out=p)
        p = z
    return out, iterations, maxed
