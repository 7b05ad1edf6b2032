"""Seeded construction of test pencils, tangents, and cotangents.

Degeneracy is exact by construction: A = R diag(spec) R^T, a closed-form
congruence (R = Q, or M^{1/2} Q for a random mass; no eigensolve), so repeated
entries of the spectrum are bit-identical eigenvalues. Valid perturbation
directions are sampled, then cleared of their in-group coupling.
"""

from __future__ import annotations

import numpy as np

from .jvp import TangentInput
from .vjp import CotangentInput
from .linop import check_operators, make_dense


def random_orthogonal(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(R.diagonal())


def random_symmetric(n, rng):
    B = rng.standard_normal((n, n))
    return 0.5 * (B + B.T)


def pencil_from_spectrum(spectrum, n, rng, mass="identity"):
    """Build (A, M) dense arrays with A's generalized spectrum as prescribed.

    Missing entries of the spectrum are padded with distinct values above the
    given ones. A random mass M = Qm diag(w) Qm^T is built from its factors,
    and A = R diag(full) R^T with R = M^{1/2} Q = M U for the M-orthonormal
    U = M^{-1/2} Q. Draws come in the order Qm, w, Q (Q alone for M = I).
    """
    spectrum = list(spectrum)
    if len(spectrum) > n:
        raise ValueError(f"spectrum has {len(spectrum)} entries for n={n}")
    top = max(spectrum) if spectrum else 0.0
    pad = [top + 1.0 + 0.7 * i for i in range(n - len(spectrum))]
    full = np.array(sorted(spectrum + pad))

    if mass == "identity":
        Q = random_orthogonal(n, rng)
        A = (Q * full) @ Q.T
        M = np.eye(n)
    elif mass == "random":
        Qm = random_orthogonal(n, rng)
        w = rng.uniform(1.0, 2.0, size=n)
        M = (Qm * w) @ Qm.T
        M = 0.5 * (M + M.T)
        Q = random_orthogonal(n, rng)
        # M^{1/2} Q, applied right to left
        R = Qm @ (np.sqrt(w)[:, None] * (Qm.T @ Q))
        A = (R * full) @ R.T
        A = 0.5 * (A + A.T)
    else:
        raise ValueError(f"mass must be 'identity' or 'random', got {mass!r}")
    return A, M


def random_spd_pencil(n, rng):
    """Random well-separated pencil with a random mass matrix, for
    non-degenerate tests."""
    spectrum = np.sort(rng.uniform(0.5, 10.0, size=n))
    # enforce a minimum gap so finite differences stay clean
    spectrum += 0.05 * np.arange(n)
    return pencil_from_spectrum(spectrum, n, rng, mass="random")


def valid_tangent(eig, M, rng):
    """Random symmetric (A', M') with no in-group coupling in either matrix.

    Enforces the component-wise conditions (D - I) o (X^T A' X) = 0 and
    (D - I) o (X^T M' X Lambda) = 0 by subtracting M X G X^T M terms, which
    is exact for X^T M X = I. The component-wise form (rather than only the
    difference) keeps the zero-gauge X' consistent with the differentiated
    M-orthonormality of the whole retrieved block.
    """
    check_operators(M=M)
    n = eig.X.shape[0]
    Ap = random_symmetric(n, rng)
    Mp = random_symmetric(n, rng)

    X = eig.X
    MX = M.apply_batch(X)
    mask = (eig.D - np.eye(eig.k)).astype(float)
    for P in (Ap, Mp):
        G = mask * (X.T @ (P @ X))
        P -= MX @ (0.5 * (G + G.T)) @ MX.T
    return TangentInput(Aprime=make_dense(Ap), Mprime=make_dense(Mp))


def violating_tangent(eig, M, group):
    """Unit-coupling perturbation inside a degenerate group (defect 1)."""
    if len(group) < 2:
        raise ValueError("need a group of size >= 2 to construct a violation")
    n = eig.X.shape[0]
    xi, xj = M.apply_batch(eig.X[:, group[:2]]).T
    Ap = np.outer(xi, xj) + np.outer(xj, xi)
    return TangentInput(Aprime=make_dense(Ap), Mprime=make_dense(np.zeros((n, n))))


def valid_cotangent(eig, M, rng):
    """Random (Lambda_bar, X_bar) satisfying the backward degeneracy condition.

    The antisymmetric in-group part N of X^T X_bar is cancelled by
    X_bar <- X_bar - 1/2 M X N.
    """
    check_operators(M=M)
    n = eig.X.shape[0]
    lbar = rng.standard_normal(eig.k)
    Xb = rng.standard_normal((n, eig.k))

    X = eig.X
    S = X.T @ Xb
    mask = (eig.D - np.eye(eig.k)).astype(float)
    N = mask * (S - S.T)
    Xb = Xb - 0.5 * M.apply_batch(X) @ N
    return CotangentInput(lambda_bar=lbar, X_bar=Xb)


def violating_cotangent(eig, M, group):
    """Cotangent with unit antisymmetric in-group coupling (defect 1)."""
    if len(group) < 2:
        raise ValueError("need a group of size >= 2 to construct a violation")
    i, j = group[0], group[1]
    Xb = np.zeros(eig.X.shape)
    Xb[:, j:j + 1] = M.apply_batch(eig.X[:, i:i + 1])
    return CotangentInput(lambda_bar=np.zeros(eig.k), X_bar=Xb)
