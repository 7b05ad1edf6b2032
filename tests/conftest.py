import numpy as np
import pytest
import scipy.sparse as sp

import eigengrad as eg
from eigengrad import sampling
from eigengrad.eigsolve import DEFAULT_DEGENERACY_RTOL


def pairing_gap(A, M, eig, t, c, solver="dense"):
    """Relative defect of <cotangent, JVP(tangent)> == <VJP(cotangent), tangent>."""
    fwd = eg.jvp(A, M, eig, t, solver=solver)
    bwd = eg.vjp(A, M, eig, c, solver=solver)
    lhs = c.lambda_bar @ fwd.lambda_prime + np.sum(np.asarray(c.X_bar) * fwd.X_prime)
    rhs = (np.sum(bwd.A_bar * eg.as_dense_array(t.Aprime))
           + np.sum(bwd.M_bar * eg.as_dense_array(t.Mprime)))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_pencil(spectrum, n, seed, mass="identity"):
    gen = np.random.default_rng(seed)
    A_arr, M_arr = sampling.pencil_from_spectrum(spectrum, n, gen, mass=mass)
    return eg.make_dense(A_arr), eg.make_spd(M_arr)


def membrane(m):
    """Q1 FEM stiffness and mass of the unit square with m x m interior nodes,
    as CSR matrices; modes (i, j) and (j, i) are exactly degenerate."""
    h = 1.0 / (m + 1)
    ones = np.ones(m)
    K1 = sp.diags([-ones[1:], 2.0 * ones, -ones[1:]], [-1, 0, 1]) / h
    M1 = sp.diags([ones[1:], 4.0 * ones, ones[1:]], [-1, 0, 1]) * (h / 6.0)
    return (sp.kron(K1, M1) + sp.kron(M1, K1)).tocsr(), sp.kron(M1, M1).tocsr()


def sparse_ops(K, Mm):
    """Block closures over sparse matrices, as a matrix-free caller passes them."""
    return (eg.SymmetricOperator(K.shape[0], None, K.__matmul__),
            eg.SymmetricOperator(Mm.shape[0], None, Mm.__matmul__))


def pseudo_inverse_apply(fs, lam, v):
    """(A - lam M)^+ v via the spectral series sum_i u_i (u_i^T v)/(e_i - lam),
    for a :class:`eigengrad.FullSpectrum` ``fs``.

    Terms with |e_i - lam| <= DEFAULT_DEGENERACY_RTOL * max|e| are dropped
    (the nullspace).
    """
    v = np.asarray(v, dtype=float)
    denom = fs.E - lam
    keep = np.abs(denom) > DEFAULT_DEGENERACY_RTOL * max(np.max(np.abs(fs.E)), 1e-300)
    c = fs.U.T @ v
    return fs.U[:, keep] @ (c[keep] / denom[keep])
