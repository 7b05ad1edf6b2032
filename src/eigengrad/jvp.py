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

from .errors import NotAnOperator, ValidityViolated
from .linop import SymmetricOperator
from .sylvester import check_solver, linearize, project_rhs, solve_dense, solve_iterative

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
    for name, op in (("Aprime", t.Aprime), ("Mprime", t.Mprime)):
        if not isinstance(op, SymmetricOperator):
            raise NotAnOperator(name, op)
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


def jvp(A, M, eig, t, solver="dense", force=False):
    """First-order response (Lambda', X') along t = (A', M'); requires forward
    validity, which ``force`` skips. A sequence ``t`` gives a list: every
    direction is checked, then all are solved as one block (an empty one
    gives [] and applies nothing). Runs on the linearization memoized on
    ``eig`` (see :func:`linearize`).

    Pipeline: build V = A'X - M'X Lambda and F = X^T V once; check validity
    on F and take Lambda' = diag F; project V's degenerate-group component
    out and solve the shifted systems for Y', which the solvers gauge
    M-orthogonal to each group; assemble X' = -1/2 X [I o (X^T M' X)] - Y'.
    """
    check_solver(solver)
    X, parts = eig.X, []
    for ti in [t] if isinstance(t, TangentInput) else t:
        MpX, V, F = _coupling(eig, ti)
        ok, defect = check_forward_validity(eig, ti, F=F)
        if not ok and not force:
            raise ValidityViolated(defect)
        parts.append((MpX, V, F, defect))
    if not parts:
        return []
    lin = linearize(A, M, eig)
    # changes no result beyond roundoff: each solver projects its own B first
    # and measures on that; kept while bench/tracing.py times this stage here
    B = project_rhs(lin, np.hstack([V for _, V, _, _ in parts]))
    Y = (solve_dense(lin, B) if solver == "dense" else solve_iterative(lin, B)).Y
    outs = [TangentOutput(lambda_prime=np.diag(F).copy(),
                          X_prime=-0.5 * X * np.einsum("ij,ij->j", X, MpX) - Yi,
                          validity_defect=defect)
            for (MpX, _, F, defect), Yi in zip(parts, np.hsplit(Y, len(parts)))]
    return outs[0] if isinstance(t, TangentInput) else outs
