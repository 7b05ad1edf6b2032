"""Forward-mode derivatives of the partial eigendecomposition.

Given the primal pencil (A, M), its retrieved eigenpairs, and a perturbation
direction (A', M'), computes the first-order response (Lambda', X'). In the
presence of repeated eigenvalues the response exists only when the
perturbation does not couple distinct eigenvectors inside a degeneracy group;
that condition is checked and reported as a defect. The free in-group
component of X' is gauged to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidityViolated
from .sylvester import linearize, project_rhs, solve_dense, solve_iterative

TOL_COND = 1e-7


@dataclass
class TangentInput:
    """Perturbation directions for the two matrices of the pencil."""

    Aprime: object  # SymmetricOperator
    Mprime: object  # SymmetricOperator


@dataclass
class TangentOutput:
    lambda_prime: np.ndarray   # length k
    X_prime: np.ndarray        # n x k
    validity_defect: float = 0.0


def _coupling(eig, t):
    """M'X, V = A'X - M'X Lambda and the k x k coupling F = X^T V."""
    X = eig.X
    if t.Aprime.dim != X.shape[0] or t.Mprime.dim != X.shape[0]:
        raise DimensionMismatch(
            f"tangent dim ({t.Aprime.dim}, {t.Mprime.dim}) != primal dim {X.shape[0]}")
    MpX = t.Mprime.apply_batch(X)
    V = t.Aprime.apply_batch(X) - MpX * eig.lambdas
    return MpX, V, X.T @ V


def check_forward_validity(eig, t, F=None):
    """Degenerate-group off-diagonal coupling must vanish; returns (ok, defect).

    ``F`` is the coupling X^T (A'X - M'X Lambda) if the caller holds it.
    """
    if F is None:
        F = _coupling(eig, t)[2]
    return in_group_defect(eig, F, F)


def in_group_defect(eig, C, S):
    """(ok, defect): largest in-group off-diagonal |C_ij| vs TOL_COND max(1, max|S|)."""
    defect = float(np.max(np.abs((eig.D - np.eye(eig.k, dtype=int)) * C), initial=0.0))
    return defect <= TOL_COND * max(1.0, float(np.max(np.abs(S), initial=0.0))), defect


def eigenvalue_jvp(eig, t):
    """lambda'_j = x_j^T (A' - lambda_j M') x_j for each retrieved pair."""
    return np.diag(_coupling(eig, t)[2]).copy()


def forward(lin, t, force=False):
    """First-order response (Lambda', X') on a linearization; requires forward validity.

    Pipeline: build V = A'X - M'X Lambda and F = X^T V once; check validity
    on F and take Lambda' = diag F; project V's degenerate-group component
    out and solve the shifted systems for Y', which the solvers gauge
    M-orthogonal to each group; assemble X' = -1/2 X [I o (X^T M' X)] - Y'.
    """
    eig = lin.eig
    X = eig.X
    MpX, V, F = _coupling(eig, t)
    ok, defect = check_forward_validity(eig, t, F=F)
    if not ok and not force:
        raise ValidityViolated(defect)
    B = project_rhs(lin, V)
    sol = solve_dense(lin, B) if lin.solver == "dense" else solve_iterative(lin, B)
    X_prime = -0.5 * X * np.einsum("ij,ij->j", X, MpX) - sol.Y
    return TangentOutput(lambda_prime=np.diag(F).copy(), X_prime=X_prime,
                         validity_defect=defect)


def jvp(A, M, eig, t, solver="dense", **opts):
    """Forward derivatives along t = (A', M') on the linearization memoized on
    ``eig`` (see :func:`linearize`); ``opts`` are those of :func:`forward`."""
    return forward(linearize(A, M, eig, solver), t, **opts)
