"""Reverse-mode derivatives of the partial eigendecomposition.

Given sensitivities (Lambda_bar, X_bar) of a downstream scalar with respect
to the retrieved eigenpairs, computes the sensitivities (A_bar, M_bar) with
respect to the pencil. Degenerate groups admit a finite adjoint only when
the antisymmetric in-group part of X^T X_bar vanishes; that condition is
checked and reported as a defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidityViolated
from .jvp import in_group_defect
from .sylvester import linearize, project_rhs, solve_dense, solve_iterative


@dataclass
class CotangentInput:
    lambda_bar: np.ndarray   # length k
    X_bar: np.ndarray        # n x k


@dataclass
class CotangentOutput:
    A_bar: np.ndarray        # n x n
    M_bar: np.ndarray        # n x n
    validity_defect: float = 0.0


def check_backward_validity(eig, c):
    """In-group antisymmetry of X^T X_bar must vanish; returns (ok, defect)."""
    Xb = np.asarray(c.X_bar, dtype=float)
    if Xb.shape != eig.X.shape:
        raise DimensionMismatch(f"X_bar shape {Xb.shape} != X shape {eig.X.shape}")
    S = eig.X.T @ Xb
    return in_group_defect(eig, S - S.T, S)


def reverse(lin, c, force=False):
    """Adjoint map (Lambda_bar, X_bar) -> (A_bar, M_bar) on a linearization.

    Solves the shifted systems (A - lambda_j M) ybar_j = xbar_j projected off
    the degenerate group, which the solvers gauge M-orthogonal to it (Vbar =
    Ybar), and assembles
        A_bar = X Lambda_bar X^T - Vbar X^T
        M_bar = -X Lambda Lambda_bar X^T
                - 1/2 X [I o (X^T X_bar)] X^T + Vbar Lambda X^T.
    The eigenvalue term of M_bar carries a minus sign, matching the
    single-pair adjoint and the pairing identity with forward mode.
    """
    eig = lin.eig
    ok, defect = check_backward_validity(eig, c)
    if not ok and not force:
        raise ValidityViolated(defect)

    X, lam = eig.X, eig.lambdas
    lbar = np.asarray(c.lambda_bar, dtype=float)
    Xb = np.asarray(c.X_bar, dtype=float)
    if lbar.shape != (eig.k,):
        raise DimensionMismatch(f"lambda_bar has shape {lbar.shape}, expected ({eig.k},)")

    if np.all(Xb == 0.0):
        Vbar = np.zeros_like(X)
        S_diag = np.zeros(eig.k)
    else:
        B = project_rhs(lin, Xb)
        Vbar = (solve_dense(lin, B) if lin.solver == "dense"
                else solve_iterative(lin, B)).Y
        S_diag = np.einsum("ij,ij->j", X, Xb)

    A_bar = (X * lbar - Vbar) @ X.T
    M_bar = (Vbar * lam - X * (lam * lbar + 0.5 * S_diag)) @ X.T
    return CotangentOutput(A_bar=A_bar, M_bar=M_bar, validity_defect=defect)


def vjp(A, M, eig, c, solver="dense", **opts):
    """Reverse derivatives of ``c`` on the linearization memoized on ``eig``
    (see :func:`linearize`); ``opts`` are those of :func:`reverse`."""
    return reverse(linearize(A, M, eig, solver), c, **opts)
