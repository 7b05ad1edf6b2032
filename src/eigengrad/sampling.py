"""Seeded construction of test pencils, tangents, and cotangents.

Degeneracy is exact by construction: A = Q diag(spec) Q^T with orthogonal Q,
so repeated entries of the spectrum are bit-identical eigenvalues. Valid
perturbation directions for degenerate groups are obtained by sampling and
then projecting out the offending in-group coupling.
"""

from __future__ import annotations

import numpy as np

from .jvp import TangentInput
from .vjp import CotangentInput
from .linop import make_dense


def random_orthogonal(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def random_symmetric(n, rng):
    B = rng.standard_normal((n, n))
    return 0.5 * (B + B.T)


def pencil_from_spectrum(spectrum, n, rng, mass="identity"):
    """Build (A, M) dense arrays with A's generalized spectrum as prescribed.

    Missing entries of the spectrum are padded with distinct values above the
    given ones. With a random mass matrix, A is built as M Q diag Q^T M-style
    congruence so the generalized eigenvalues stay exactly the prescribed set.
    """
    spectrum = list(spectrum)
    if len(spectrum) > n:
        raise ValueError(f"spectrum has {len(spectrum)} entries for n={n}")
    top = max(spectrum) if spectrum else 0.0
    pad = [top + 1.0 + 0.7 * i for i in range(n - len(spectrum))]
    full = np.array(sorted(spectrum + pad))

    if mass == "identity":
        Q = random_orthogonal(n, rng)
        A = Q @ np.diag(full) @ Q.T
        M = np.eye(n)
    elif mass == "random":
        Qm = random_orthogonal(n, rng)
        M = Qm @ np.diag(rng.uniform(1.0, 2.0, size=n)) @ Qm.T
        M = 0.5 * (M + M.T)
        # U with U^T M U = I: whiten by M^{-1/2}, then rotate
        w, V = np.linalg.eigh(M)
        Msqrt_inv = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
        Q = random_orthogonal(n, rng)
        U = Msqrt_inv @ Q
        # A U = M U diag(full)  =>  A = M U diag U^T M
        A = M @ U @ np.diag(full) @ U.T @ M
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
