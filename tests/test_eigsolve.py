import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import eigengrad as eg
from eigengrad import sampling
from eigengrad.eigsolve import group_mask
from eigengrad.errors import MaxIterExceeded, NotPositiveDefinite

from conftest import make_pencil


def test_eig_dense_diagonal():
    A = eg.make_dense(np.diag([1.0, 2.0, 3.0]))
    M = eg.identity_operator(3)
    res = eg.eig_dense(A, M, 2)
    np.testing.assert_allclose(res.lambdas, [1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(res.X), np.eye(3)[:, :2], atol=1e-14)


def test_eig_dense_decoupled_generalized():
    # embed the 2x2 pencil diag(2,6)/diag(1,4) in a 3x3 to keep k < n
    A = eg.make_dense(np.diag([2.0, 6.0, 100.0]))
    M = eg.make_spd(np.diag([1.0, 4.0, 1.0]))
    res = eg.eig_dense(A, M, 2)
    np.testing.assert_allclose(res.lambdas, [1.5, 2.0], atol=1e-14)
    np.testing.assert_allclose(res.X[:, 0], [0.0, 0.5, 0.0], atol=1e-14)
    with pytest.raises(ValueError):
        eg.eig_dense(A, M, 3)  # k must satisfy k < n


def test_eig_dense_constructed_degeneracy():
    A = eg.make_dense(np.diag([2.0, 2.0, 5.0]))
    M = eg.identity_operator(3)
    res = eg.eig_dense(A, M, 2)
    np.testing.assert_allclose(res.lambdas, [2.0, 2.0])
    np.testing.assert_array_equal(res.D, [[1, 1], [1, 1]])
    assert res.groups == [[0, 1]]


def test_eig_dense_not_positive_definite():
    A = eg.make_dense(np.eye(3))
    M = eg.make_dense(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        eg.eig_dense(A, M, 2)


def test_eig_dense_largest():
    A = eg.make_dense(np.diag([1.0, 2.0, 3.0]))
    res = eg.eig_dense(A, eg.identity_operator(3), 2, which="largest")
    np.testing.assert_allclose(res.lambdas, [2.0, 3.0], atol=1e-14)


@pytest.mark.parametrize("seed", range(3))
def test_eig_dense_invariants_random(seed):
    A, M = make_pencil([], 8, seed, mass="random")
    res = eg.eig_dense(A, M, 4)
    Ad, Md = A.entries, eg.as_dense_array(M)
    resid = np.linalg.norm(Ad @ res.X - Md @ res.X * res.lambdas)
    assert resid <= 1e-10 * np.linalg.norm(Ad) * np.linalg.norm(res.X)
    assert np.max(np.abs(res.X.T @ Md @ res.X - np.eye(4))) <= 1e-12
    assert np.all(np.diff(res.lambdas) >= 0)


def test_gauge_largest_entry_positive():
    A, M = make_pencil([], 7, 5, mass="random")
    res = eg.eig_dense(A, M, 3)
    for j in range(3):
        i = np.argmax(np.abs(res.X[:, j]))
        assert res.X[i, j] > 0


def test_build_degeneracy_pair():
    assert eg.build_degeneracy([2.0, 2.0, 5.0], tol_rel=1e-8) == [[0, 1], [2]]


def test_build_degeneracy_nondegenerate():
    assert eg.build_degeneracy([1.0, 2.0, 3.0]) == [[0], [1], [2]]


def test_build_degeneracy_chain_merge():
    lams = [1.0, 1.0 + 1e-12, 1.0 + 2e-12]
    # threshold ~1.2e-12: each 1e-12 gap is below it, the 2e-12 span is not
    assert eg.build_degeneracy(lams, tol_rel=1.2e-12) == [[0, 1, 2]]


def test_degeneracy_is_equivalence():
    groups = eg.build_degeneracy([1.0, 1.0, 2.0, 2.0, 2.0, 7.0])
    assert groups == [[0, 1], [2, 3, 4], [5]]
    D = group_mask(groups, 6)
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 1)
    # transitivity: D as boolean relation composed with itself stays D
    reach = (D @ D > 0).astype(int)
    np.testing.assert_array_equal(reach, D)


def test_eig_iterative_matrix_free_closure():
    d = np.arange(1.0, 11.0)
    A = eg.SymmetricOperator(10, lambda v: d * v, lambda V: d[:, None] * V)
    M = eg.SymmetricOperator(10, lambda v: v, lambda V: V)
    res = eg.eig_iterative(A, M, 3)
    np.testing.assert_allclose(res.lambdas, [1.0, 2.0, 3.0], atol=1e-8)


@pytest.mark.parametrize("seed", range(3))
def test_eig_iterative_matches_dense(seed):
    A, M = make_pencil([], 50, seed, mass="random")
    it = eg.eig_iterative(A, M, 4, tol=1e-10, seed=seed)
    de = eg.eig_dense(A, M, 4)
    np.testing.assert_allclose(it.lambdas, de.lambdas, atol=1e-7)
    assert np.max(np.abs(it.X.T @ eg.as_dense_array(M) @ it.X - np.eye(4))) < 1e-9


def test_eig_iterative_k1_identity():
    A = eg.make_dense(np.eye(4))
    M = eg.identity_operator(4)
    res = eg.eig_iterative(A, M, 1)
    np.testing.assert_allclose(res.lambdas, [1.0], atol=1e-12)
    resid = np.linalg.norm(res.X[:, 0] - res.lambdas[0] * res.X[:, 0])
    assert resid < 1e-12


def test_eig_iterative_largest():
    A, M = make_pencil([], 40, 9, mass="identity")
    it = eg.eig_iterative(A, M, 3, which="largest", seed=2)
    de = eg.eig_dense(A, M, 3, which="largest")
    np.testing.assert_allclose(it.lambdas, de.lambdas, atol=1e-8)


def test_eig_iterative_maxiter_payload():
    A, M = make_pencil([], 30, 3, mass="random")
    with pytest.raises(MaxIterExceeded) as excinfo:
        eg.eig_iterative(A, M, 3, maxiter=1, tol=1e-14)
    best = excinfo.value.payload
    assert best is not None and best.X.shape == (30, 3)


def test_eig_iterative_rejects_indefinite_mass():
    A = eg.make_dense(np.eye(20))
    M = eg.make_spd(-np.eye(20))
    with pytest.raises(NotPositiveDefinite):
        eg.eig_iterative(A, M, 2)


def test_eig_iterative_deterministic():
    A, M = make_pencil([], 40, 11, mass="random")
    r1 = eg.eig_iterative(A, M, 3, seed=7)
    r2 = eg.eig_iterative(A, M, 3, seed=7)
    np.testing.assert_array_equal(r1.X, r2.X)
    np.testing.assert_array_equal(r1.lambdas, r2.lambdas)


def test_eig_iterative_rejects_zero_maxiter():
    A, M = make_pencil([], 30, 3, mass="random")
    with pytest.raises(ValueError):
        eg.eig_iterative(A, M, 3, maxiter=0)


def test_eig_iterative_rejects_unknown_which():
    # n = 40 > max(4k, 12): the LOBPCG route, not the dense fallback
    A_arr, M_arr = sampling.random_spd_pencil(40, np.random.default_rng(0))
    A, M = eg.make_dense(A_arr), eg.make_spd(M_arr)
    for which in ("Smallest", "middle"):
        with pytest.raises(ValueError):
            eg.eig_iterative(A, M, 3, which=which)


def test_eig_iterative_negative_mass_direction():
    # one negative diagonal entry passes the positivity spot-check, and the
    # residual of A = I concentrates on it, so a Gram matrix turns indefinite
    Md = np.eye(60)
    Md[5, 5] = -1e-3
    with pytest.raises(NotPositiveDefinite):
        eg.eig_iterative(eg.make_dense(np.eye(60)), eg.make_spd(Md), 3)


def test_eigen_result_rejects_mask_not_matching_groups():
    X, lam = np.eye(3)[:, :2], np.array([2.0, 2.0])
    with pytest.raises(ValueError):    # column 1 in no group
        eg.EigenResult(X=X, lambdas=lam, groups=[[0]])
    with pytest.raises(ValueError):    # column 1 in two groups
        eg.EigenResult(X=X, lambdas=lam, groups=[[0, 1], [1]])
    res = eg.EigenResult(X=X, lambdas=lam, groups=[[0, 1]])
    assert res.groups == [[0, 1]] and res.k == 2
    np.testing.assert_array_equal(res.D, np.ones((2, 2), dtype=int))


def _counting(mat, counts, key):
    """A SymmetricOperator over ``mat`` that counts the columns it is applied to."""
    def apply(V):
        counts[key] += 1 if V.ndim == 1 else V.shape[1]
        return mat @ V
    return eg.SymmetricOperator(mat.shape[0], apply, apply)


def _membrane(m):
    """Q1 FEM stiffness and mass of the unit square with m x m interior nodes;
    modes (i, j) and (j, i) are exactly degenerate."""
    h = 1.0 / (m + 1)
    ones = np.ones(m)
    K1 = sp.diags([-ones[1:], 2.0 * ones, -ones[1:]], [-1, 0, 1]) / h
    M1 = sp.diags([ones[1:], 4.0 * ones, ones[1:]], [-1, 0, 1]) * (h / 6.0)
    return (sp.kron(K1, M1) + sp.kron(M1, K1)).tocsc(), sp.kron(M1, M1).tocsc()


def test_eig_iterative_maxiter_payload_pairs_lambdas_with_X():
    A, M = make_pencil([], 30, 3, mass="random")
    with pytest.raises(MaxIterExceeded) as excinfo:
        eg.eig_iterative(A, M, 3, maxiter=3, tol=1e-14)
    best = excinfo.value.payload
    X = best.X
    rayleigh = (np.sum(X * (A.entries @ X), axis=0)
                / np.sum(X * (eg.as_dense_array(M) @ X), axis=0))
    np.testing.assert_allclose(best.lambdas, rayleigh, rtol=1e-10)


def test_eig_iterative_applies_each_operator_once_per_direction():
    n, k, maxiter = 200, 4, 10
    A_arr, M_arr = sampling.pencil_from_spectrum([], n, np.random.default_rng(4),
                                                 mass="random")
    counts = {"A": 0, "M": 0}
    with pytest.raises(MaxIterExceeded):
        eg.eig_iterative(_counting(A_arr, counts, "A"), _counting(M_arr, counts, "M"),
                         k, maxiter=maxiter, tol=1e-14)
    assert counts["A"] <= (maxiter + 3) * k
    assert counts["M"] <= (maxiter + 3) * k + 5   # + spot_check_spd's probes


def test_eig_iterative_preconditioned_membrane():
    K, Mm = _membrane(15)
    k = 4
    de = eg.eig_dense(eg.make_dense(K.toarray()), eg.make_spd(Mm.toarray()), k)
    runs = {}
    for name, precond in (("plain", None), ("precond", splu(K).solve)):
        counts = {"A": 0, "M": 0}
        res = eg.eig_iterative(_counting(K, counts, "A"), _counting(Mm, counts, "M"), k,
                               precond=precond)
        np.testing.assert_allclose(res.lambdas, de.lambdas, rtol=1e-8)
        assert res.groups == [[0], [1, 2], [3]]
        runs[name] = counts["A"]
    assert runs["precond"] <= runs["plain"] / 2
