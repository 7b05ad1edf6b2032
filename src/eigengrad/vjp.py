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

from .errors import DimensionMismatch, NonFiniteError, ValidityViolated
from .jvp import in_group_defect
from .linop import LowRank
from .sylvester import check_solver, linearize, project_rhs, solve_dense, solve_iterative


@dataclass
class CotangentInput:
    lambda_bar: np.ndarray   # length k
    X_bar: np.ndarray        # n x k


@dataclass
class CotangentOutput:
    A_bar: LowRank           # n x n, as n x k factors
    M_bar: LowRank           # n x n, as n x k factors
    validity_defect: float = 0.0


def check_backward_validity(eig, c):
    """In-group antisymmetry of X^T X_bar must vanish; returns (ok, defect)."""
    lbar, Xb = np.asarray(c.lambda_bar, dtype=float), np.asarray(c.X_bar, dtype=float)
    if lbar.shape != (eig.k,):
        raise DimensionMismatch(f"lambda_bar has shape {lbar.shape}, expected ({eig.k},)")
    if not (np.all(np.isfinite(lbar)) and np.all(np.isfinite(Xb))):
        raise NonFiniteError("cotangents lambda_bar and X_bar must be finite")
    if Xb.shape != eig.X.shape:
        raise DimensionMismatch(f"X_bar shape {Xb.shape} != X shape {eig.X.shape}")
    S = eig.X.T @ Xb
    return in_group_defect(eig, S - S.T, S)


def vjp(A, M, eig, c, solver="dense", force=False):
    """Adjoint map (Lambda_bar, X_bar) -> (A_bar, M_bar); requires backward
    validity, which ``force`` skips. A sequence ``c`` gives a list: every
    cotangent is checked, then all are solved as one block (an empty one
    gives [] and applies nothing). Runs on the linearization memoized on
    ``eig`` (see :func:`linearize`).

    Solves the shifted systems (A - lambda_j M) ybar_j = xbar_j projected off
    the degenerate group, which the solvers gauge M-orthogonal to it (Vbar =
    Ybar), and returns both adjoints as rank-k :class:`LowRank` products
    that share the right factor X (never formed as n x n arrays):
        A_bar = (X Lambda_bar - Vbar) X^T
        M_bar = (Vbar Lambda - X (Lambda Lambda_bar + 1/2 I o (X^T X_bar))) X^T.
    The eigenvalue term of M_bar carries a minus sign, matching the
    single-pair adjoint and the pairing identity with forward mode.
    """
    check_solver(solver)
    parts = []
    for ci in [c] if isinstance(c, CotangentInput) else c:
        ok, defect = check_backward_validity(eig, ci)
        if not ok and not force:
            raise ValidityViolated(defect)
        parts.append((np.asarray(ci.lambda_bar, float), np.asarray(ci.X_bar, float), defect))
    if not parts:
        return []

    X, lam = eig.X, eig.lambdas
    Xbs = np.hstack([Xb for _, Xb, _ in parts])
    Vbar = np.zeros_like(Xbs)
    if np.any(Xbs):
        lin = linearize(A, M, eig)
        # changes no result beyond roundoff: each solver projects its own B first
        # and measures on that; kept while bench/tracing.py times this stage here
        B = project_rhs(lin, Xbs)
        Vbar = (solve_dense(lin, B) if solver == "dense" else solve_iterative(lin, B)).Y
    outs = [CotangentOutput(
        A_bar=LowRank(X * lbar - Vi, X),
        M_bar=LowRank(Vi * lam - X * (lam * lbar + 0.5 * np.einsum("ij,ij->j", X, Xb)), X),
        validity_defect=defect)
        for (lbar, Xb, defect), Vi in zip(parts, np.hsplit(Vbar, len(parts)))]
    return outs[0] if isinstance(c, CotangentInput) else outs
