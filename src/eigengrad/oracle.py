"""Brute-force dense references used for testing and CLI verification.

Three independent routes certify the production derivative code:
  1. explicit spectral series over the full eigendecomposition,
  2. explicit pseudo-inverse application,
  3. central finite differences of the dense eigensolver.
Everything here is dense-only and capped in size; it certifies the scalable
path, it does not scale itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (ClusterSplit, GaugeAlignmentFailed, NotPositiveDefinite,
                     ValidityViolated)
from .eigsolve import DEFAULT_DEGENERACY_RTOL, eig_dense
from .jvp import TangentOutput, check_forward_validity
from .vjp import CotangentOutput, check_backward_validity
from .linop import as_dense_array, make_dense, make_spd

ORACLE_SIZE_CAP = 200


@dataclass
class FullSpectrum:
    U: np.ndarray   # n x n, M-orthonormal complete eigenvector matrix
    E: np.ndarray   # length n, ascending


def full_spectrum(A, M):
    """All n eigenpairs of the pencil, M-orthonormal."""
    Ad = as_dense_array(A)
    Md = as_dense_array(M)
    n = Ad.shape[0]
    if n > ORACLE_SIZE_CAP:
        raise ValueError(f"oracle capped at n <= {ORACLE_SIZE_CAP}, got {n}")
    try:
        ee, U = scipy.linalg.eigh(Ad, Md)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("M is not positive definite") from exc
    return FullSpectrum(U=U, E=ee)


def pseudo_inverse_apply(fs, lam, v):
    """(A - lam M)^+ v via the spectral series sum_i u_i (u_i^T v)/(e_i - lam).

    Terms with |e_i - lam| <= DEFAULT_DEGENERACY_RTOL * max|e| are dropped
    (the nullspace).
    """
    v = np.asarray(v, dtype=float)
    denom = fs.E - lam
    keep = np.abs(denom) > DEFAULT_DEGENERACY_RTOL * max(np.max(np.abs(fs.E)), 1e-300)
    c = fs.U.T @ v
    return fs.U[:, keep] @ (c[keep] / denom[keep])


def _series_weights(fs, M, eig):
    """W (n x k) with W_ij = 1/(e_i - lambda_j), and 0 on column j's nullspace,
    so U (W o U^T B) applies (A - lambda_j M)^+ to each column b_j.

    Column j's nullspace is the |g| full-spectrum eigenvectors u_i with the
    largest ||X_g^T M u_i||, g the retrieved group of j: the ones that span
    the group, however close other eigenvalues are. ClusterSplit if k cut an eigenspace:
    more full-spectrum than retrieved eigenvalues within 1e-8 max|lambda| of lambda_j.
    """
    overlap = eig.D @ (M.apply_batch(eig.X).T @ fs.U) ** 2     # ||X_g^T M u_i||^2
    rank = np.argsort(np.argsort(-overlap, axis=1, kind="stable"), axis=1)
    keep = rank >= eig.D.sum(axis=1)[:, None]
    denom = fs.E - eig.lambdas[:, None]
    scale = max(np.max(np.abs(eig.lambdas)), 1e-300)
    near = DEFAULT_DEGENERACY_RTOL * scale
    excess = ((np.abs(denom) <= near).sum(axis=1)
              - (np.abs(eig.lambdas[:, None] - eig.lambdas) <= near).sum(axis=1))
    j = np.argmax(excess)
    if excess[j] > 0:
        raise ClusterSplit(f"column {j}: k cut the eigenspace of lambda_{j} = {eig.lambdas[j]:.6g}",
                           defect=np.min(np.abs(denom[j][keep[j]])) / scale)
    return np.divide(1.0, denom, out=np.zeros_like(denom), where=keep).T


def jvp_series(fs, M, eig, t):
    """Forward derivative by explicit summation over the full spectrum.

    x'_j = -1/2 x_j (x_j^T M' x_j)
           + sum_{i outside column j's nullspace (see _series_weights)}
             u_i (u_i^T (A' - lambda_j M') x_j) / (lambda_j - e_i)
    """
    ok, defect = check_forward_validity(eig, t)
    if not ok:
        raise ValidityViolated(defect)

    X = eig.X
    MpX = t.Mprime.apply_batch(X)
    V = t.Aprime.apply_batch(X) - MpX * eig.lambdas
    X_prime = (-fs.U @ (_series_weights(fs, M, eig) * (fs.U.T @ V))
               - 0.5 * X * np.einsum("ij,ij->j", X, MpX))
    return TangentOutput(lambda_prime=np.einsum("ij,ij->j", X, V), X_prime=X_prime,
                         validity_defect=defect)


def vjp_series(fs, M, eig, c):
    """Backward derivative by explicit double summation over the full spectrum."""
    ok, defect = check_backward_validity(eig, c)
    if not ok:
        raise ValidityViolated(defect)

    X = eig.X
    n, k = X.shape
    lbar = np.asarray(c.lambda_bar, dtype=float)
    Xb = np.asarray(c.X_bar, dtype=float)
    perps = fs.U @ (_series_weights(fs, M, eig) * (fs.U.T @ Xb))
    A_bar = np.zeros((n, n))
    M_bar = np.zeros((n, n))
    for j in range(k):
        x = X[:, j]
        lam = eig.lambdas[j]
        xb = Xb[:, j]
        A_bar += lbar[j] * np.outer(x, x)
        M_bar += (-lam * lbar[j] * np.outer(x, x)
                  - 0.5 * (x @ xb) * np.outer(x, x))
        A_bar -= np.outer(perps[:, j], x)
        M_bar += lam * np.outer(perps[:, j], x)
    return CotangentOutput(A_bar=A_bar, M_bar=M_bar, validity_defect=defect)


@dataclass
class FdTangent:
    """Central-difference derivative of the dense partial eigendecomposition.

    Columns belonging to a degenerate group are not individually
    differentiable; for those, ``proj_prime`` carries the derivative of the
    group projector X_g X_g^T M instead and the X_prime columns are zero.
    Within such a group ``lambda_prime`` holds the ascending first-order
    rates of the splitting eigenvalues; entries are O(step) accurate
    individually but their group sum is O(step^2).
    """

    lambda_prime: np.ndarray
    X_prime: np.ndarray
    proj_prime: dict = field(default_factory=dict)   # tuple(group) -> n x n
    step: float = 0.0


def finite_difference_jvp(A, M, k, which, t, step=1e-5, base=None):
    """Second-order central differences of eig_dense along (A', M')."""
    A0 = as_dense_array(A)
    M0 = as_dense_array(M)
    Ap = as_dense_array(t.Aprime)
    Mp = as_dense_array(t.Mprime)
    if base is None:
        base = eig_dense(make_dense(A0), make_spd(M0), k, which)

    def solve(s):
        return eig_dense(make_dense(A0 + s * Ap), make_spd(M0 + s * Mp), k, which)

    ep = solve(+step)
    em = solve(-step)

    scale = max(np.max(np.abs(base.lambdas)), 1.0)
    if (np.max(np.abs(ep.lambdas - base.lambdas)) > 0.5 * scale
            or np.max(np.abs(em.lambdas - base.lambdas)) > 0.5 * scale):
        raise ClusterSplit("retrieved spectrum changed drastically under the FD step")

    lam_prime = (ep.lambdas - em.lambdas) / (2.0 * step)
    n = base.X.shape[0]
    X_prime = np.zeros((n, k))
    proj_prime = {}
    for grp in base.groups:
        if len(grp) > 1:
            # a split group reorders oppositely on the two branches; pairing
            # +h ascending with -h descending recovers the ascending rates
            # (exact to O(step) per entry, O(step^2) for the group sum)
            lam_prime[grp] = (ep.lambdas[grp] - em.lambdas[grp][::-1]) / (2.0 * step)
    for grp in base.groups:
        if len(grp) == 1:
            j = grp[0]
            xp = _align(ep.X[:, j], base.X[:, j])
            xm = _align(em.X[:, j], base.X[:, j])
            X_prime[:, j] = (xp - xm) / (2.0 * step)
        else:
            Pp = ep.X[:, grp] @ ep.X[:, grp].T @ (M0 + step * Mp)
            Pm = em.X[:, grp] @ em.X[:, grp].T @ (M0 - step * Mp)
            proj_prime[tuple(grp)] = (Pp - Pm) / (2.0 * step)
    return FdTangent(lambda_prime=lam_prime, X_prime=X_prime,
                     proj_prime=proj_prime, step=step)


def _align(x, ref):
    d = x @ ref
    if abs(d) < 0.5 * np.linalg.norm(x) * np.linalg.norm(ref):
        raise GaugeAlignmentFailed(
            "perturbed eigenvector is not close to +/- the reference")
    return x if d >= 0 else -x


def analytic_projector_derivative(eig, out, M, Mprime, group):
    """d/dt of the group projector X_g X_g^T M from an analytic tangent output.

    P' = X'_g X_g^T M + X_g X'_g^T M + X_g X_g^T M'; well-defined inside a
    degenerate group even though individual columns are gauge-dependent.
    """
    grp = list(group)
    if any(j < 0 or j >= eig.k for j in grp):
        raise IndexError(f"group indices {grp} out of range for k={eig.k}")
    Xg = eig.X[:, grp]
    Xpg = out.X_prime[:, grp]
    Md = as_dense_array(M)
    Mp = as_dense_array(Mprime)
    return Xpg @ Xg.T @ Md + Xg @ Xpg.T @ Md + Xg @ Xg.T @ Mp
