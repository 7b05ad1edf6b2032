import warnings

import numpy as np
import pytest
import scipy.linalg

import eigengrad as eg
from eigengrad import oracle, sampling
from eigengrad.errors import (ClusterSplit, DimensionMismatch, GaugeAlignmentFailed,
                              NotPositiveDefinite, ValidityViolated)

from conftest import make_pencil, pseudo_inverse_apply


def test_full_spectrum_diagonal():
    fs = eg.full_spectrum(eg.make_dense(np.diag([1.0, 2.0, 3.0])),
                          eg.identity_operator(3))
    np.testing.assert_allclose(fs.E, [1.0, 2.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(fs.U), np.eye(3), atol=1e-14)


def test_full_spectrum_generalized_diagonal():
    fs = eg.full_spectrum(eg.make_dense(np.diag([2.0, 6.0])),
                          eg.make_spd(np.diag([1.0, 4.0])))
    np.testing.assert_allclose(fs.E, [1.5, 2.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(fs.U[:, 0]), [0.0, 0.5], atol=1e-14)


def test_full_spectrum_invariants(rng):
    A, M = make_pencil([], 8, 2, mass="random")
    fs = eg.full_spectrum(A, M)
    Md = eg.as_dense_array(M)
    assert np.max(np.abs(fs.U.T @ Md @ fs.U - np.eye(8))) < 1e-10
    assert np.max(np.abs(fs.U @ fs.U.T - np.linalg.inv(Md))) < 1e-10


@pytest.mark.parametrize("n", [3, 20, 50])
def test_full_spectrum_matches_scipy_generalized_eigh(n):
    A, M = make_pencil([1.0, 1.0, 2.0], n, 31, mass="random")
    Ad, Md = eg.as_dense_array(A), eg.as_dense_array(M)
    fs = eg.full_spectrum(A, M)
    E, U = scipy.linalg.eigh(Ad, Md)
    assert np.max(np.abs(fs.E - E)) <= 1e-13 * np.max(np.abs(E))
    assert np.max(np.abs(fs.U.T @ Md @ fs.U - np.eye(n))) <= 1e-12
    gaps = np.diff(E)
    simple = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf)) > 1e-8
    assert simple.sum() == n - 2
    sign = np.sign(np.sum(fs.U * U, axis=0))
    np.testing.assert_allclose((fs.U * sign)[:, simple], U[:, simple], rtol=0,
                               atol=1e-11 * np.max(np.abs(U)))


def test_full_spectrum_typed_pencil_errors():
    with pytest.raises(NotPositiveDefinite):
        eg.full_spectrum(eg.make_dense(np.eye(3)), eg.make_spd(np.diag([1.0, -1.0, 2.0])))
    with pytest.raises(DimensionMismatch):
        eg.full_spectrum(eg.make_dense(np.eye(3)), eg.identity_operator(4))


def test_full_spectrum_size_cap():
    n = eg.oracle.ORACLE_SIZE_CAP + 1
    with pytest.raises(ValueError):
        eg.full_spectrum(eg.make_dense(np.eye(n)), eg.identity_operator(n))


def test_pseudo_inverse_diagonal_case():
    fs = eg.full_spectrum(eg.make_dense(np.diag([1.0, 2.0, 3.0])),
                          eg.identity_operator(3))
    e2 = np.eye(3)[:, 1]
    np.testing.assert_allclose(pseudo_inverse_apply(fs, 1.0, e2), e2, atol=1e-12)


def test_pseudo_inverse_annihilates_eigenspace():
    fs = eg.full_spectrum(eg.make_dense(np.diag([2.0, 2.0, 5.0])),
                          eg.identity_operator(3))
    v = np.array([0.3, -0.7, 0.0])
    np.testing.assert_allclose(pseudo_inverse_apply(fs, 2.0, v),
                               np.zeros(3), atol=1e-12)


def test_pseudo_inverse_linearity(rng):
    A, M = make_pencil([], 7, 5, mass="random")
    fs = eg.full_spectrum(A, M)
    v1, v2 = rng.standard_normal(7), rng.standard_normal(7)
    lam = fs.E[1]
    np.testing.assert_allclose(
        pseudo_inverse_apply(fs, lam, 2.0 * v1 - v2),
        2.0 * pseudo_inverse_apply(fs, lam, v1)
        - pseudo_inverse_apply(fs, lam, v2), atol=1e-10)


def test_pseudo_inverse_left_inverse_off_eigenspace(rng):
    A, M = make_pencil([], 7, 8, mass="random")
    Ad, Md = eg.as_dense_array(A), eg.as_dense_array(M)
    fs = eg.full_spectrum(A, M)
    lam = fs.E[2]
    # component M-orthogonal to the lambda-eigenspace
    v = rng.standard_normal(7)
    v -= fs.U[:, 2] * (fs.U[:, 2] @ Md @ v)
    w = (Ad - lam * Md) @ v
    np.testing.assert_allclose(pseudo_inverse_apply(fs, lam, w), v, atol=1e-8)


def test_jvp_series_hand_evaluable():
    A = eg.make_dense(np.diag([1.0, 2.0, 3.0]))
    M = eg.identity_operator(3)
    eig = eg.eig_dense(A, M, 2)
    fs = eg.full_spectrum(A, M)
    Ap = np.zeros((3, 3))
    Ap[0, 1] = Ap[1, 0] = 1.0
    t = eg.TangentInput(Aprime=eg.make_dense(Ap),
                        Mprime=eg.make_dense(np.zeros((3, 3))))
    out = eg.jvp_series(fs, M, eig, t)
    np.testing.assert_allclose(out.lambda_prime, [0.0, 0.0], atol=1e-13)
    np.testing.assert_allclose(out.X_prime[:, 0], [0.0, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out.X_prime[:, 1], [1.0, 0.0, 0.0], atol=1e-12)


def test_jvp_series_degenerate_group_diagonal():
    A = eg.make_dense(np.diag([2.0, 2.0, 5.0]))
    M = eg.identity_operator(3)
    eig = eg.eig_dense(A, M, 2)
    fs = eg.full_spectrum(A, M)
    t = eg.TangentInput(Aprime=eg.make_dense(np.diag([3.0, 7.0, 0.0])),
                        Mprime=eg.make_dense(np.zeros((3, 3))))
    out = eg.jvp_series(fs, M, eig, t)
    np.testing.assert_allclose(out.X_prime, np.zeros((3, 2)), atol=1e-12)
    np.testing.assert_allclose(out.lambda_prime, [3.0, 7.0], atol=1e-12)


def test_jvp_series_rejects_invalid():
    A = eg.make_dense(np.diag([2.0, 2.0, 5.0]))
    M = eg.identity_operator(3)
    eig = eg.eig_dense(A, M, 2)
    fs = eg.full_spectrum(A, M)
    t = sampling.violating_tangent(eig, M, eig.groups[0])
    with pytest.raises(ValidityViolated):
        eg.jvp_series(fs, M, eig, t)


def test_vjp_series_rejects_invalid():
    A = eg.make_dense(np.diag([2.0, 2.0, 5.0]))
    M = eg.identity_operator(3)
    eig = eg.eig_dense(A, M, 2)
    fs = eg.full_spectrum(A, M)
    c = sampling.violating_cotangent(eig, M, eig.groups[0])
    with pytest.raises(ValidityViolated):
        eg.vjp_series(fs, M, eig, c)


def test_vjp_series_k1():
    A = eg.make_dense(np.diag([1.0, 2.0, 3.0]))
    M = eg.identity_operator(3)
    eig = eg.eig_dense(A, M, 1)
    fs = eg.full_spectrum(A, M)
    c = eg.CotangentInput(lambda_bar=np.array([1.0]), X_bar=np.zeros((3, 1)))
    out = eg.vjp_series(fs, M, eig, c)
    e1 = np.eye(3)[:, :1]
    np.testing.assert_allclose(out.A_bar, e1 @ e1.T, atol=1e-13)


@pytest.mark.parametrize("spectrum", [[], [2.0, 2.0, 5.0], [1.0, 1.0, 1.0, 4.0]])
def test_series_match_production_modules(spectrum, rng):
    A, M = make_pencil(spectrum, 6, 43, mass="random")
    k = max(3, len(spectrum))
    eig = eg.eig_dense(A, M, k)
    fs = eg.full_spectrum(A, M)
    t = sampling.valid_tangent(eig, M, rng)
    c = sampling.valid_cotangent(eig, M, rng)
    f, fser = eg.jvp(A, M, eig, t), eg.jvp_series(fs, M, eig, t)
    b, bser = eg.vjp(A, M, eig, c), eg.vjp_series(fs, M, eig, c)
    assert np.max(np.abs(f.X_prime - fser.X_prime)) <= 1e-9
    assert np.max(np.abs(b.A_bar - bser.A_bar)) <= 1e-9
    assert np.max(np.abs(b.M_bar - bser.M_bar)) <= 1e-9


def test_series_follow_groups_on_near_degenerate_pair():
    # relative gap 1e-6 is above the grouping tolerance but below
    # 1e-8 max|full spectrum|: the series must keep the 1/gap terms
    A, M = make_pencil([1, 1 + 1e-6, 2, 3, 4, 5, 6, 1000], 8, 1)
    eig = eg.eig_dense(A, M, 3)
    assert eig.groups == [[0], [1], [2]]
    fs = eg.full_spectrum(A, M)
    t = sampling.valid_tangent(eig, M, np.random.default_rng(2))
    c = sampling.valid_cotangent(eig, M, np.random.default_rng(3))
    f, fser = eg.jvp(A, M, eig, t), eg.jvp_series(fs, M, eig, t)
    b, bser = eg.vjp(A, M, eig, c), eg.vjp_series(fs, M, eig, c)
    for ref, ser in ((f.X_prime, fser.X_prime), (b.A_bar, bser.A_bar),
                     (b.M_bar, bser.M_bar)):
        assert np.max(np.abs(ref - ser)) <= 1e-6 * np.max(np.abs(ref))


def test_series_raise_cluster_split_on_a_cut_group():
    # k = 2 retrieves one eigenvector of the double eigenvalue 2, as jvp/vjp do
    A, M = eg.make_dense(np.diag([1.0, 2.0, 2.0, 3.0, 4.0])), eg.identity_operator(5)
    eig = eg.eig_dense(A, M, 2)
    assert eig.groups == [[0], [1]]
    fs = eg.full_spectrum(A, M)
    t = sampling.valid_tangent(eig, M, np.random.default_rng(0))
    c = sampling.valid_cotangent(eig, M, np.random.default_rng(1))
    with pytest.raises(ClusterSplit):
        eg.jvp(A, M, eig, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for series, arg in ((eg.jvp_series, t), (eg.vjp_series, c)):
            with pytest.raises(ClusterSplit) as excinfo:
                series(fs, M, eig, arg)
            assert excinfo.value.defect <= 1e-8
    # degeneracy_rtol = 0 retrieves both eigenvalues of a 1e-9 pair in separate
    # groups: no eigenspace is cut, so the series keep the 1/gap terms as jvp does
    A = eg.make_dense(np.diag([1.0, 1.0 + 1e-9, 2.0, 3.0, 4.0]))
    eig = eg.eig_dense(A, M, 3, degeneracy_rtol=0.0)
    assert eig.groups == [[0], [1], [2]]
    fs = eg.full_spectrum(A, M)
    t = sampling.valid_tangent(eig, M, np.random.default_rng(0))
    c = sampling.valid_cotangent(eig, M, np.random.default_rng(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fser, bser = eg.jvp_series(fs, M, eig, t), eg.vjp_series(fs, M, eig, c)
    f, b = eg.jvp(A, M, eig, t), eg.vjp(A, M, eig, c)
    for ref, ser in ((f.X_prime, fser.X_prime), (b.A_bar, bser.A_bar),
                     (b.M_bar, bser.M_bar)):
        assert np.max(np.abs(ref - ser)) <= 1e-6 * np.max(np.abs(ref))


def test_series_internal_adjoint_consistency(rng):
    A, M = make_pencil([2.0, 2.0, 6.0], 6, 47, mass="random")
    eig = eg.eig_dense(A, M, 3)
    fs = eg.full_spectrum(A, M)
    t = sampling.valid_tangent(eig, M, rng)
    c = sampling.valid_cotangent(eig, M, rng)
    f = eg.jvp_series(fs, M, eig, t)
    b = eg.vjp_series(fs, M, eig, c)
    lhs = c.lambda_bar @ f.lambda_prime + np.sum(c.X_bar * f.X_prime)
    rhs = (np.sum(b.A_bar * eg.as_dense_array(t.Aprime))
           + np.sum(b.M_bar * eg.as_dense_array(t.Mprime)))
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) <= 1e-10


def test_fd_exactly_linear_eigenvalues():
    A = eg.make_dense(np.diag([1.0, 2.0, 3.0]))
    M = eg.identity_operator(3)
    t = eg.TangentInput(Aprime=eg.make_dense(np.eye(3)),
                        Mprime=eg.make_dense(np.zeros((3, 3))))
    fd = eg.finite_difference_jvp(A, M, 2, "smallest", t, step=1e-5)
    np.testing.assert_allclose(fd.lambda_prime, [1.0, 1.0], atol=1e-9)


def test_fd_matches_analytic(rng):
    A, M = make_pencil([], 6, 53, mass="random")
    eig = eg.eig_dense(A, M, 3)
    t = sampling.valid_tangent(eig, M, rng)
    out = eg.jvp(A, M, eig, t)
    fd = eg.finite_difference_jvp(A, M, 3, "smallest", t, step=1e-5, base=eig)
    assert np.max(np.abs(out.X_prime - fd.X_prime)) <= 1e-6


def test_fd_degenerate_projector_mode(rng):
    A, M = make_pencil([2.0, 2.0, 5.0], 5, 59, mass="random")
    eig = eg.eig_dense(A, M, 3)
    t = sampling.valid_tangent(eig, M, rng)
    out = eg.jvp(A, M, eig, t)
    fd = eg.finite_difference_jvp(A, M, 3, "smallest", t, step=1e-5, base=eig)
    grp = tuple(eig.groups[0])
    assert grp in fd.proj_prime
    Pan = eg.analytic_projector_derivative(eig, out, M, t.Mprime, grp)
    assert np.max(np.abs(Pan - fd.proj_prime[grp])) <= 1e-6


def test_fd_richardson_second_order(rng):
    A, M = make_pencil([], 6, 61, mass="random")
    eig = eg.eig_dense(A, M, 3)
    t = sampling.valid_tangent(eig, M, rng)
    out = eg.jvp(A, M, eig, t)
    errs = []
    for h in (1e-5, 2e-5):
        fd = eg.finite_difference_jvp(A, M, 3, "smallest", t, step=h, base=eig)
        errs.append(np.linalg.norm(fd.X_prime - out.X_prime))
    assert 3.0 <= errs[1] / errs[0] <= 5.0


def test_fd_step_that_moves_the_spectrum_is_a_cluster_split():
    # A' = I shifts every eigenvalue by the step: 2 is above half of max(|2|, 1)
    A = eg.make_dense(np.diag([1.0, 2.0, 3.0]))
    t = eg.TangentInput(Aprime=eg.make_dense(np.eye(3)), Mprime=eg.make_dense(np.zeros((3, 3))))
    with pytest.raises(ClusterSplit, match="changed drastically"):
        eg.finite_difference_jvp(A, eg.identity_operator(3), 2, "smallest", t, step=2.0)


def test_align_rejects_a_vector_far_from_the_reference():
    e = np.eye(3)
    np.testing.assert_array_equal(oracle._align(-e[0], e[0]), e[0])
    with pytest.raises(GaugeAlignmentFailed):
        oracle._align(e[1], e[0])


@pytest.mark.parametrize("group", [[0, 2], [-1]])
def test_projector_derivative_rejects_an_out_of_range_group(group):
    A, M = make_pencil([2.0, 2.0, 5.0], 5, 59)
    eig = eg.eig_dense(A, M, 2)
    t = sampling.valid_tangent(eig, M, np.random.default_rng(0))
    out = eg.jvp(A, M, eig, t)
    with pytest.raises(IndexError, match="out of range for k=2"):
        eg.analytic_projector_derivative(eig, out, M, t.Mprime, group)


def test_pencil_from_spectrum_rejects_a_long_spectrum_and_an_unknown_mass():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="4 entries for n=3"):
        sampling.pencil_from_spectrum([1.0, 2.0, 3.0, 4.0], 3, rng)
    with pytest.raises(ValueError, match="mass must be 'identity' or 'random'"):
        sampling.pencil_from_spectrum([1.0], 3, rng, mass="diagonal")


@pytest.mark.parametrize("violating", [sampling.violating_tangent, sampling.violating_cotangent])
def test_violations_need_a_group_of_two(violating):
    A, M = make_pencil([2.0, 2.0, 5.0], 5, 59)
    eig = eg.eig_dense(A, M, 3)
    assert eig.groups == [[0, 1], [2]]
    violating(eig, M, eig.groups[0])
    with pytest.raises(ValueError, match="size >= 2"):
        violating(eig, M, eig.groups[1])
