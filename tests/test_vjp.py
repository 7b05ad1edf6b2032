import importlib
import tracemalloc

import numpy as np
import pytest

import eigengrad as eg
from eigengrad import oracle, sampling
from eigengrad.errors import DimensionMismatch, NonFiniteError, ValidityViolated

from conftest import make_pencil, membrane, pairing_gap, sparse_ops


@pytest.fixture
def degen225():
    A = eg.make_dense(np.diag([2.0, 2.0, 5.0]))
    M = eg.identity_operator(3)
    return A, M, eg.eig_dense(A, M, 2)


def test_backward_validity_nondegenerate(rng):
    A, M = make_pencil([], 5, 3, mass="random")
    eig = eg.eig_dense(A, M, 2)
    c = eg.CotangentInput(lambda_bar=rng.standard_normal(2),
                          X_bar=rng.standard_normal((5, 2)))
    ok, defect = eg.check_backward_validity(eig, c)
    assert ok and defect == 0.0


def test_backward_validity_symmetric_in_group_ok(degen225, rng):
    _, _, eig = degen225
    S = sampling.random_symmetric(2, rng)
    c = eg.CotangentInput(lambda_bar=np.zeros(2), X_bar=eig.X @ S)
    ok, defect = eg.check_backward_validity(eig, c)
    assert ok and defect < 1e-12


def test_backward_validity_antisymmetric_part_fails(degen225):
    _, _, eig = degen225
    Xb = np.zeros((3, 2))
    Xb[:, 1] = eig.X[:, 0]
    ok, defect = eg.check_backward_validity(
        eig, eg.CotangentInput(lambda_bar=np.zeros(2), X_bar=Xb))
    assert not ok
    np.testing.assert_allclose(defect, 1.0, atol=1e-12)


def test_vjp_eigenvalue_only_k1():
    A = eg.make_dense(np.diag([1.0, 2.0, 3.0]))
    M = eg.identity_operator(3)
    eig = eg.eig_dense(A, M, 1)
    c = eg.CotangentInput(lambda_bar=np.array([1.0]), X_bar=np.zeros((3, 1)))
    out = eg.vjp(A, M, eig, c)
    e1 = np.eye(3)[:, :1]
    np.testing.assert_allclose(out.A_bar, e1 @ e1.T, atol=1e-13)
    np.testing.assert_allclose(out.M_bar, -1.0 * e1 @ e1.T, atol=1e-13)


def test_vjp_zero_cotangent():
    A, M = make_pencil([], 5, 7, mass="random")
    eig = eg.eig_dense(A, M, 2)
    c = eg.CotangentInput(lambda_bar=np.zeros(2), X_bar=np.zeros((5, 2)))
    out = eg.vjp(A, M, eig, c)
    np.testing.assert_array_equal(out.A_bar, np.zeros((5, 5)))
    np.testing.assert_array_equal(out.M_bar, np.zeros((5, 5)))


def test_vjp_rejects_invalid_cotangent(degen225):
    A, M, eig = degen225
    c = sampling.violating_cotangent(eig, M, eig.groups[0])
    with pytest.raises(ValidityViolated) as err:
        eg.vjp(A, M, eig, c)
    assert err.value.defect > 0.5


@pytest.mark.parametrize("bad", ["lambda_bar", "X_bar"])
def test_vjp_rejects_nonfinite_cotangent(degen225, bad):
    A, M, eig = degen225
    c = eg.CotangentInput(lambda_bar=np.ones(2), X_bar=np.zeros((3, 2)))
    getattr(c, bad)[0] = np.nan
    with pytest.raises(NonFiniteError):
        eg.vjp(A, M, eig, c)


@pytest.mark.parametrize("lbar, Xb, what", [
    (np.ones(3), np.zeros((3, 2)), r"lambda_bar has shape \(3,\)"),
    (np.ones(2), np.zeros((2, 3)), r"X_bar shape \(2, 3\)"),
], ids=["lambda_bar", "X_bar"])
def test_backward_validity_rejects_a_wrong_shape_cotangent(degen225, lbar, Xb, what):
    _, _, eig = degen225
    with pytest.raises(DimensionMismatch, match=what):
        eg.check_backward_validity(eig, eg.CotangentInput(lambda_bar=lbar, X_bar=Xb))


def test_eigenvalue_only_fast_path_equals_general(rng):
    A, M = make_pencil([2.0, 2.0, 5.0], 6, 11, mass="random")
    eig = eg.eig_dense(A, M, 3)
    lbar = rng.standard_normal(3)
    fast = eg.vjp(A, M, eig, eg.CotangentInput(lambda_bar=lbar,
                                               X_bar=np.zeros((6, 3))))
    # same cotangent through the general path (tiny X_bar defeats the shortcut)
    tiny = eg.CotangentInput(lambda_bar=lbar, X_bar=np.full((6, 3), 1e-300))
    slow = eg.vjp(A, M, eig, tiny)
    np.testing.assert_allclose(fast.A_bar, slow.A_bar, atol=1e-12)
    np.testing.assert_allclose(fast.M_bar, slow.M_bar, atol=1e-12)
    np.testing.assert_allclose(fast.A_bar, (eig.X * lbar) @ eig.X.T, atol=1e-13)


@pytest.mark.parametrize("mass", ["identity", "random"])
@pytest.mark.parametrize("spectrum", [[], [2.0, 2.0, 5.0]])
def test_adjoint_pairing(mass, spectrum, rng):
    A, M = make_pencil(spectrum, 6, 13, mass=mass)
    eig = eg.eig_dense(A, M, 3)
    for _ in range(20):
        t = sampling.valid_tangent(eig, M, rng)
        c = sampling.valid_cotangent(eig, M, rng)
        assert pairing_gap(A, M, eig, t, c) <= 1e-8


def test_vjp_linearity(rng):
    A, M = make_pencil([], 6, 17, mass="random")
    eig = eg.eig_dense(A, M, 3)
    c1 = sampling.valid_cotangent(eig, M, rng)
    c2 = sampling.valid_cotangent(eig, M, rng)
    combo = eg.CotangentInput(lambda_bar=3.0 * c1.lambda_bar - c2.lambda_bar,
                              X_bar=3.0 * c1.X_bar - c2.X_bar)
    o1, o2, oc = (eg.vjp(A, M, eig, c) for c in (c1, c2, combo))
    for bar in ("A_bar", "M_bar"):
        mixed = 3.0 * getattr(o1, bar) - getattr(o2, bar)
        assert isinstance(mixed, eg.LowRank) and mixed.U.shape == (6, 6)
        np.testing.assert_allclose(np.asarray(getattr(oc, bar)), np.asarray(mixed), atol=1e-9)


def test_degenerate_path_reduces_to_nondegenerate(rng):
    # when D = I the D-masked equations coincide with the plain ones
    A, M = make_pencil([], 6, 29, mass="random")
    eig = eg.eig_dense(A, M, 3)
    assert np.array_equal(eig.D, np.eye(3, dtype=int))
    c = sampling.valid_cotangent(eig, M, rng)
    fs = oracle.full_spectrum(A, M)
    out = eg.vjp(A, M, eig, c)
    ser = oracle.vjp_series(fs, M, eig, c)
    np.testing.assert_allclose(out.A_bar, ser.A_bar, atol=1e-9)
    np.testing.assert_allclose(out.M_bar, ser.M_bar, atol=1e-9)


@pytest.mark.parametrize("solver", ["dense", "iterative"])
def test_vjp_returns_low_rank_factors_of_the_dense_assembly(solver, rng, monkeypatch):
    # the factors give the n x n assembly of the formula from the solve's Vbar
    # bit for bit, and pair with a dense or a closure operator like it does
    A, M = make_pencil([2.0, 2.0, 5.0], 40, 19, mass="random")
    eig = eg.eig_dense(A, M, 3)
    X, lam = eig.X, eig.lambdas
    c = sampling.valid_cotangent(eig, M, rng)
    lbar, Xb = c.lambda_bar, c.X_bar
    module, name = importlib.import_module("eigengrad.vjp"), f"solve_{solver}"
    solves, solve = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda lin, B: solves.append(solve(lin, B)) or solves[-1])
    out = eg.vjp(A, M, eig, c, solver=solver)
    V = solves[0].Y
    assert isinstance(out.A_bar, eg.LowRank) and isinstance(out.M_bar, eg.LowRank)
    assert out.A_bar.W is X and out.M_bar.W is X
    np.testing.assert_array_equal(np.asarray(out.A_bar), (X * lbar - V) @ X.T)
    np.testing.assert_array_equal(
        np.asarray(out.M_bar),
        (V * lam - X * (lam * lbar + 0.5 * np.einsum("ij,ij->j", X, Xb))) @ X.T)
    S = sampling.random_symmetric(40, rng)
    for bar in (out.A_bar, out.M_bar):
        want = np.vdot(np.asarray(bar), S)
        for P in (eg.make_dense(S), eg.SymmetricOperator(40, None, S.__matmul__)):
            assert abs(bar.pair(P) - want) <= 1e-12 * abs(want)


def test_scaling_an_output_in_place_leaves_the_primal(rng):
    A, M = make_pencil([2.0, 2.0, 5.0], 12, 23, mass="random")
    eig = eg.eig_dense(A, M, 3)
    X = eig.X.copy()
    out = eg.vjp(A, M, eig, sampling.valid_cotangent(eig, M, rng))
    A_bar, M_bar = np.asarray(out.A_bar), np.asarray(out.M_bar)
    out.A_bar *= 2.0
    out.M_bar *= 2.0
    np.testing.assert_array_equal(eig.X, X)
    np.testing.assert_array_equal(np.asarray(out.A_bar), 2.0 * A_bar)
    np.testing.assert_array_equal(np.asarray(out.M_bar), 2.0 * M_bar)


def test_iterative_vjp_allocates_no_n_by_n_array():
    # one n x n output would be n^2 8 bytes; the whole call stays under an eighth of it
    K, Mm = membrane(40)
    A, M = sparse_ops(K, Mm)
    n = K.shape[0]
    eig = eg.eig_iterative(A, M, 6)
    c = sampling.valid_cotangent(eig, M, np.random.default_rng(4))
    tracemalloc.start()
    try:
        eg.vjp(A, M, eig, c, solver="iterative")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 8
