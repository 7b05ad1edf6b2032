import numpy as np
import pytest

import eigengrad as eg
from eigengrad import oracle, sampling
from eigengrad.errors import DimensionMismatch, NonFiniteError, ValidityViolated

from conftest import make_pencil


def tangent(Ap, Mp=None):
    n = np.asarray(Ap).shape[0]
    Mp = np.zeros((n, n)) if Mp is None else Mp
    return eg.TangentInput(Aprime=eg.make_dense(Ap), Mprime=eg.make_dense(Mp))


def coupling(n, i, j):
    Ap = np.zeros((n, n))
    Ap[i, j] = Ap[j, i] = 1.0
    return Ap


@pytest.fixture
def diag123():
    A = eg.make_dense(np.diag([1.0, 2.0, 3.0]))
    M = eg.identity_operator(3)
    return A, M, eg.eig_dense(A, M, 2)


@pytest.fixture
def degen225():
    A = eg.make_dense(np.diag([2.0, 2.0, 5.0]))
    M = eg.identity_operator(3)
    return A, M, eg.eig_dense(A, M, 2)


def test_forward_validity_nondegenerate_always_ok(diag123, rng):
    _, _, eig = diag123
    t = tangent(sampling.random_symmetric(3, rng), sampling.random_symmetric(3, rng))
    ok, defect = eg.check_forward_validity(eig, t)
    assert ok and defect == 0.0


def test_forward_validity_group_coupling_fails(degen225):
    _, _, eig = degen225
    ok, defect = eg.check_forward_validity(eig, tangent(coupling(3, 0, 1)))
    assert not ok
    np.testing.assert_allclose(defect, 1.0, atol=1e-12)


def test_forward_validity_group_diagonal_ok(degen225):
    _, _, eig = degen225
    ok, defect = eg.check_forward_validity(eig, tangent(np.diag([3.0, 7.0, 0.0])))
    assert ok
    assert defect < 1e-12


def test_eigenvalue_jvp_identity_direction(diag123):
    A, M, eig = diag123
    lp = eg.jvp(A, M, eig, tangent(np.eye(3))).lambda_prime
    np.testing.assert_allclose(lp, [1.0, 1.0], atol=1e-13)


def test_eigenvalue_jvp_mass_direction(diag123):
    A, M, eig = diag123
    lp = eg.jvp(A, M, eig, tangent(np.zeros((3, 3)), np.eye(3))).lambda_prime
    np.testing.assert_allclose(lp, [-1.0, -2.0], atol=1e-13)


def test_eigenvalue_jvp_offdiagonal_direction(diag123):
    A, M, eig = diag123
    lp = eg.jvp(A, M, eig, tangent(coupling(3, 0, 1))).lambda_prime
    np.testing.assert_allclose(lp, [0.0, 0.0], atol=1e-13)


def test_eigenvalue_jvp_dimension_mismatch(diag123):
    A, M, eig = diag123
    with pytest.raises(DimensionMismatch):
        eg.jvp(A, M, eig, tangent(np.zeros((4, 4))))


def test_eigenvalue_jvp_rejects_violating_tangent(degen225):
    # the in-group coupling's diagonal is [0, 0] here, while finite
    # differences split the double eigenvalue 2 at rates [-1, 1]
    A, M, eig = degen225
    with pytest.raises(ValidityViolated) as excinfo:
        eg.jvp(A, M, eig, sampling.violating_tangent(eig, M, eig.groups[0]))
    assert excinfo.value.defect > 0.5


@pytest.mark.parametrize("bad", ["Aprime", "Mprime"])
def test_jvp_rejects_nonfinite_tangent_products(diag123, bad):
    # a closure can return NaN where a dense operator cannot hold one
    A, M, eig = diag123
    nan = eg.SymmetricOperator(3, lambda v: np.full(3, np.nan))
    zero = eg.make_dense(np.zeros((3, 3)))
    t = eg.TangentInput(**{"Aprime": zero, "Mprime": zero, bad: nan})
    with pytest.raises(NonFiniteError):
        eg.jvp(A, M, eig, t)


def test_eigenvector_jvp_offdiagonal(diag123):
    A, M, eig = diag123
    out = eg.jvp(A, M, eig, tangent(coupling(3, 0, 1)))
    # frozen from the spectral series sum_i x_i (x_i^T A' x_j)/(lambda_j - lambda_i)
    np.testing.assert_allclose(out.X_prime[:, 0], [0.0, -1.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(out.X_prime[:, 1], [1.0, 0.0, 0.0], atol=1e-10)


def test_eigenvector_jvp_zero_tangent(diag123):
    A, M, eig = diag123
    out = eg.jvp(A, M, eig, tangent(np.zeros((3, 3))))
    np.testing.assert_array_equal(out.X_prime, np.zeros((3, 2)))


def test_eigenvector_jvp_group_diagonal_stationary(degen225):
    A, M, eig = degen225
    out = eg.jvp(A, M, eig, tangent(np.diag([3.0, 7.0, 0.0])))
    np.testing.assert_allclose(out.X_prime, np.zeros((3, 2)), atol=1e-10)


def test_eigenvector_jvp_rejects_invalid(degen225):
    A, M, eig = degen225
    with pytest.raises(ValidityViolated) as err:
        eg.jvp(A, M, eig, tangent(coupling(3, 0, 1)))
    assert err.value.defect > 0.5


def test_jvp_primal_residual_identity():
    A, M = make_pencil([], 5, 17, mass="random")
    eig = eg.eig_dense(A, M, 2)
    t = eg.TangentInput(Aprime=A, Mprime=eg.make_dense(eg.as_dense_array(M)))
    lp = eg.jvp(A, M, eig, t).lambda_prime
    np.testing.assert_allclose(lp, np.zeros(2), atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_jvp_matches_finite_differences(seed):
    A, M = make_pencil([], 6, seed, mass="random")
    eig = eg.eig_dense(A, M, 3)
    rng = np.random.default_rng(seed)
    t = sampling.valid_tangent(eig, M, rng)
    out = eg.jvp(A, M, eig, t)
    fd = oracle.finite_difference_jvp(A, M, 3, "smallest", t, step=1e-5, base=eig)
    np.testing.assert_allclose(out.lambda_prime, fd.lambda_prime,
                               rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(out.X_prime, fd.X_prime, rtol=0,
                               atol=1e-6 * max(1, np.max(np.abs(out.X_prime))))


@pytest.mark.parametrize("mass", ["identity", "random"])
def test_differentiated_invariants(mass, rng):
    A, M = make_pencil([2.0, 2.0, 5.0], 7, 23, mass=mass)
    eig = eg.eig_dense(A, M, 3)
    t = sampling.valid_tangent(eig, M, rng)
    out = eg.jvp(A, M, eig, t)
    Ad, Md = eg.as_dense_array(A), eg.as_dense_array(M)
    Ap, Mp = eg.as_dense_array(t.Aprime), eg.as_dense_array(t.Mprime)
    X, Xp = eig.X, out.X_prime
    # differentiated eigen-equation
    res = (Ap @ X + Ad @ Xp - Mp @ X * eig.lambdas
           - Md @ Xp * eig.lambdas - Md @ X * out.lambda_prime)
    scale = max(np.linalg.norm(Ad), 1.0) * max(np.linalg.norm(Ap), np.linalg.norm(Mp), 1.0)
    assert np.linalg.norm(res) <= 1e-8 * scale
    # differentiated normalization
    norm_res = X.T @ Mp @ X + X.T @ Md @ Xp + Xp.T @ Md @ X
    assert np.max(np.abs(norm_res)) <= 1e-8


def test_jvp_linearity(rng):
    A, M = make_pencil([], 6, 31, mass="random")
    eig = eg.eig_dense(A, M, 2)
    t1 = sampling.valid_tangent(eig, M, rng)
    t2 = sampling.valid_tangent(eig, M, rng)
    combo = eg.TangentInput(
        Aprime=eg.make_dense(2.0 * eg.as_dense_array(t1.Aprime)
                             - 0.5 * eg.as_dense_array(t2.Aprime)),
        Mprime=eg.make_dense(2.0 * eg.as_dense_array(t1.Mprime)
                             - 0.5 * eg.as_dense_array(t2.Mprime)))
    o1, o2, oc = (eg.jvp(A, M, eig, t) for t in (t1, t2, combo))
    np.testing.assert_allclose(oc.lambda_prime,
                               2.0 * o1.lambda_prime - 0.5 * o2.lambda_prime,
                               atol=1e-10)
    np.testing.assert_allclose(oc.X_prime, 2.0 * o1.X_prime - 0.5 * o2.X_prime,
                               atol=1e-8)


def test_degenerate_gauge_zero_in_group(rng):
    A, M = make_pencil([1.0, 1.0, 1.0, 4.0], 6, 37, mass="random")
    eig = eg.eig_dense(A, M, 4)
    t = sampling.valid_tangent(eig, M, rng)
    out = eg.jvp(A, M, eig, t)
    Md = eg.as_dense_array(M)
    C = eig.X.T @ Md @ out.X_prime
    for grp in eig.groups:
        for i in grp:
            for j in grp:
                if i != j:
                    assert abs(C[i, j]) < 1e-9


def test_nondegenerate_agrees_with_series(rng):
    A, M = make_pencil([], 6, 41, mass="random")
    eig = eg.eig_dense(A, M, 3)
    fs = oracle.full_spectrum(A, M)
    t = sampling.valid_tangent(eig, M, rng)
    out = eg.jvp(A, M, eig, t)
    ser = oracle.jvp_series(fs, M, eig, t)
    np.testing.assert_allclose(out.lambda_prime, ser.lambda_prime, atol=1e-10)
    np.testing.assert_allclose(out.X_prime, ser.X_prime, atol=1e-9)


def test_violating_tangent_block_solves_alike_on_both_routes():
    # the tangent's V = A'X - M'X Lambda lies in the group's span, so its
    # projected columns are at roundoff; both shifted solves take them as
    # they are and agree, while jvp refuses the tangent on either route
    A, M = make_pencil([2, 2, 5], 12, 3, mass="random")
    eig = eg.eig_dense(A, M, 3)
    t = sampling.violating_tangent(eig, M, [0, 1])
    V = t.Aprime.apply_batch(eig.X) - t.Mprime.apply_batch(eig.X) * eig.lambdas
    lin = eg.linearize(A, M, eig)
    dense, iterative = eg.solve_dense(lin, V).Y, eg.solve_iterative(lin, V).Y
    np.testing.assert_allclose(dense, iterative, rtol=0, atol=1e-12)
    defects = []
    for solver in ("dense", "iterative"):
        with pytest.raises(ValidityViolated) as err:
            eg.jvp(A, M, eig, t, solver=solver)
        defects.append(err.value.defect)
    assert defects[0] == defects[1] > 0.1
