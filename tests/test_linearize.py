import copy
import gc
import importlib
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import splu

import eigengrad as eg
from eigengrad import _blas, sampling
from eigengrad._blas import NUMPY_LAPACK_MIN_N
from eigengrad.errors import ClusterSplit
from eigengrad.sylvester import project_rhs

from conftest import make_pencil, membrane, pairing_gap, pseudo_inverse_apply, sparse_ops

jvp_module = importlib.import_module("eigengrad.jvp")

SOLVERS = ["dense", "iterative"]


@pytest.mark.parametrize("solver", SOLVERS)
def test_cached_matches_uncached(solver):
    A, M = make_pencil([2.0, 2.0, 4.0], 30, 5, mass="random")
    eig = eg.eig_dense(A, M, 4)
    rng = np.random.default_rng(5)
    t = sampling.valid_tangent(eig, M, rng)
    c = sampling.valid_cotangent(eig, M, rng)
    lin = eg.linearize(A, M, eig)
    eg.jvp(A, M, eig, sampling.valid_tangent(eig, M, rng), solver=solver)
    assert eg.linearize(A, M, eig) is lin
    fresh = eg.eig_dense(A, M, 4)
    fwd, ref = eg.jvp(A, M, eig, t, solver=solver), eg.jvp(A, M, fresh, t, solver=solver)
    np.testing.assert_allclose(fwd.X_prime, ref.X_prime, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fwd.lambda_prime, ref.lambda_prime, rtol=0, atol=1e-12)
    bwd, ref = eg.vjp(A, M, eig, c, solver=solver), eg.vjp(A, M, fresh, c, solver=solver)
    np.testing.assert_allclose(bwd.A_bar, ref.A_bar, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bwd.M_bar, ref.M_bar, rtol=0, atol=1e-12)
    assert eg.linearize(A, M, eig) is lin


def test_cache_keyed_by_operator_identity_alone(monkeypatch):
    # alternating solvers on an eig_dense result keep its reduction
    A, M = make_pencil([1.0, 1.0, 3.0], 12, 2, mass="random")
    eig = eg.eig_dense(A, M, 3)
    lin, calls = eg.linearize(A, M, eig), counting_lapack(monkeypatch)
    rng = np.random.default_rng(2)
    for solver in ("iterative", "dense", "iterative", "dense"):
        eg.jvp(A, M, eig, sampling.valid_tangent(eig, M, rng), solver=solver)
        eg.vjp(A, M, eig, sampling.valid_cotangent(eig, M, rng), solver=solver)
        assert eg.linearize(A, M, eig) is lin
    assert calls == {}
    same_A = eg.make_dense(eg.as_dense_array(A))
    same_M = eg.make_spd(eg.as_dense_array(M))
    for other in (eg.linearize(same_A, M, eig), eg.linearize(A, same_M, eig)):
        assert other is not lin


@pytest.mark.parametrize("mode", ["jvp", "vjp"])
def test_unknown_solver_is_a_value_error_before_any_apply(mode):
    A, M = make_pencil([], 12, 2, mass="random")
    eig = eg.eig_dense(A, M, 3)
    lin, applied = eig._linearization, []

    def counted(V):
        applied.append(V.shape)
        return V

    op = eg.SymmetricOperator(12, None, counted)
    direction = (eg.TangentInput(Aprime=op, Mprime=op) if mode == "jvp" else
                 sampling.valid_cotangent(eig, M, np.random.default_rng(2)))
    with pytest.raises(ValueError, match="solver"):
        getattr(eg, mode)(op, op, eig, direction, solver="cholesky")
    assert applied == [] and eig._linearization is lin


def test_cache_freed_with_eigen_result():
    A, M = make_pencil([], 12, 3)
    eig = eg.eig_dense(A, M, 3)
    ref = weakref.ref(eg.linearize(A, M, eig))
    gc.disable()   # freed by reference counting alone, so the memo holds no cycle
    try:
        del eig
        assert ref() is None
    finally:
        gc.enable()


def test_eigenvalue_only_vjp_does_not_factor(monkeypatch):
    # an iterative primal leaves the dense reduction to the first dense solve
    A, M = make_pencil([], 40, 6, mass="random")
    eig = eg.eig_iterative(A, M, 3)
    calls = counting_lapack(monkeypatch)
    eg.vjp(A, M, eig, eg.CotangentInput(lambda_bar=np.ones(3), X_bar=np.zeros((40, 3))))
    assert calls == {}
    assert not {"reduction", "band"} & set(vars(eg.linearize(A, M, eig)))


def test_eig_dense_seeds_the_dense_linearization():
    A, M = make_pencil([2.0, 2.0, 5.0], 12, 3, mass="random")
    eig = eg.eig_dense(A, M, 3)
    lin = eig._linearization
    assert lin is not None and "reduction" in vars(lin)
    t = sampling.valid_tangent(eig, M, np.random.default_rng(3))
    eg.jvp(A, M, eig, t, solver="iterative")
    assert eg.linearize(A, M, eig) is lin and "reduction" in vars(lin)


def membrane_tangent(K, M, eig, seed):
    """A valid tangent of the membrane: a random diagonal A' less its in-group coupling."""
    MX = M.apply_batch(eig.X)
    d = np.random.default_rng(seed).uniform(-0.1, 0.1, K.shape[0]) * K.diagonal()
    G = (eig.D - np.eye(eig.k)) * (eig.X.T @ (d[:, None] * eig.X))    # in-group coupling
    return eg.TangentInput(
        Aprime=eg.SymmetricOperator(K.shape[0], None,
                                    lambda V: d[:, None] * V - MX @ (G @ (MX.T @ V))),
        Mprime=eg.SymmetricOperator(K.shape[0], None, np.zeros_like))


def recorded_iterations(monkeypatch):
    """The iteration counts of every iterative solve a jvp makes, in order."""
    iterations, solve = [], jvp_module.solve_iterative

    def recording(lin, B):
        sol = solve(lin, B)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(jvp_module, "solve_iterative", recording)
    return iterations


def test_eig_iterative_preconditioner_carries_into_jvp(monkeypatch):
    # the n = 3,969 membrane: eig_iterative's splu(K) seeds the linearization,
    # so the jvp's solve is PCG; the same pairs without it (a copy, which holds
    # no linearization) run plain CG
    K, Mm = membrane(63)
    A, M = sparse_ops(K, Mm)
    eig = eg.eig_iterative(A, M, 6, precond=splu(K.tocsc()).solve)
    assert eg.linearize(A, M, eig).precond is not None
    plain = copy.copy(eig)
    plain._linearization = None
    t = membrane_tangent(K, M, eig, 6)
    iterations = recorded_iterations(monkeypatch)
    fwd = eg.jvp(A, M, eig, t, solver="iterative")
    ref = eg.jvp(A, M, plain, t, solver="iterative")
    assert iterations[0].max() < iterations[1].min()
    scale = np.max(np.abs(ref.X_prime))
    assert np.max(np.abs(fwd.X_prime - ref.X_prime)) <= 1e-8 * scale
    np.testing.assert_array_equal(fwd.lambda_prime, ref.lambda_prime)


def test_default_preconditioner_carries_into_jvp(monkeypatch):
    # the n = 961 membrane with no precond: eig_iterative's Chebyshev default
    # seeds the linearization, so the jvp's solve is PCG with it, and the same
    # pairs without it (a copy, which holds no linearization) run plain CG
    K, Mm = membrane(31)
    A, M = sparse_ops(K, Mm)
    eig = eg.eig_iterative(A, M, 6)
    assert eg.linearize(A, M, eig).precond is not None
    plain = copy.copy(eig)
    plain._linearization = None
    t = membrane_tangent(K, M, eig, 8)
    iterations = recorded_iterations(monkeypatch)
    fwd = eg.jvp(A, M, eig, t, solver="iterative")
    ref = eg.jvp(A, M, plain, t, solver="iterative")
    assert iterations[0].max() < iterations[1].min()
    scale = np.max(np.abs(ref.X_prime))
    assert np.max(np.abs(fwd.X_prime - ref.X_prime)) <= 1e-8 * scale
    np.testing.assert_array_equal(fwd.lambda_prime, ref.lambda_prime)


def test_preconditioner_survives_a_dense_derivative(monkeypatch):
    # the n = 961 membrane: a dense jvp between eig_iterative and an iterative
    # jvp leaves the preconditioner in place, so that solve is still PCG
    K, Mm = membrane(31)
    A, M = sparse_ops(K, Mm)
    eig = eg.eig_iterative(A, M, 6, precond=splu(K.tocsc()).solve)
    plain = copy.copy(eig)
    plain._linearization = None
    t = membrane_tangent(K, M, eig, 7)
    dense = eg.jvp(A, M, eig, t)
    iterations = recorded_iterations(monkeypatch)
    fwd = eg.jvp(A, M, eig, t, solver="iterative")
    eg.jvp(A, M, plain, t, solver="iterative")
    assert iterations[0].max() < iterations[1].min()
    assert np.max(np.abs(fwd.X_prime - dense.X_prime)) <= 1e-7 * np.max(np.abs(dense.X_prime))


def test_small_pencil_fallback_keeps_the_preconditioner():
    # n = 12 <= max(4 k, 12): eig_iterative solves densely, and its result
    # still carries P into the iterative derivative solves
    A, M = make_pencil([2.0, 2.0, 5.0], 12, 3, mass="random")
    d = np.diagonal(eg.as_dense_array(A))
    blocks = []

    def P(R):
        blocks.append(R.shape)
        return R / d[:, None]

    eig = eg.eig_iterative(A, M, 3, precond=P)
    assert eg.linearize(A, M, eig).precond is P and not blocks
    t = sampling.valid_tangent(eig, M, np.random.default_rng(3))
    fwd = eg.jvp(A, M, eig, t, solver="iterative")
    assert blocks
    dense = eg.jvp(A, M, eig, t)
    assert np.max(np.abs(fwd.X_prime - dense.X_prime)) <= 1e-9 * np.max(np.abs(dense.X_prime))


def test_eig_dense_checks_its_groups_once(monkeypatch):
    # the memo's copy of the result reuses the groups check, not reruns it
    calls, group_mask = [], eg.eigsolve.group_mask

    def counted(groups, k):
        calls.append(k)
        return group_mask(groups, k)

    monkeypatch.setattr(eg.eigsolve, "group_mask", counted)
    A, M = make_pencil([2.0, 2.0, 5.0], 12, 3, mass="random")
    eig = eg.eig_dense(A, M, 3)
    eg.linearize(A, M, eig)
    assert len(calls) == 1


def counting_lapack(monkeypatch):
    """Count the O(n^3) LAPACK factorizations, as the modules look them up:
    scipy's, and numpy's binding that large reductions call."""
    calls = {}
    for lib, names in ((scipy.linalg.lapack, ("dpotrf", "dsygst", "dsytrd", "dgetrf")),
                       (_blas.numpy_lapack(), ("dpotrf", "dsygst", "dsytrd"))):
        for name in names if lib is not None else ():
            def counted(*args, _name=name, _fn=getattr(lib, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(lib, name, counted)
    return calls


def test_dense_derivatives_reuse_the_primal_reduction(monkeypatch):
    calls = counting_lapack(monkeypatch)
    A, M = make_pencil([1.0, 1.0, 3.0], 30, 8, mass="random")
    eig = eg.eig_dense(A, M, 4)
    assert calls == {"dpotrf": 1, "dsygst": 1, "dsytrd": 1}
    calls.clear()
    rng = np.random.default_rng(8)
    eg.jvp(A, M, eig, sampling.valid_tangent(eig, M, rng))
    eg.vjp(A, M, eig, sampling.valid_cotangent(eig, M, rng))
    assert calls == {}


def test_large_primal_reduces_once_on_numpy_lapack(monkeypatch):
    # from NUMPY_LAPACK_MIN_N on the reduction calls numpy's binding, which
    # counting_lapack counts too; once, and its derivatives reuse it
    calls = counting_lapack(monkeypatch)
    A, M = make_pencil([1.0, 1.0, 3.0], NUMPY_LAPACK_MIN_N, 8, mass="random")
    eig = eg.eig_dense(A, M, 4)
    rng = np.random.default_rng(8)
    eg.jvp(A, M, eig, sampling.valid_tangent(eig, M, rng))
    eg.vjp(A, M, eig, sampling.valid_cotangent(eig, M, rng))
    assert calls == {"dpotrf": 1, "dsygst": 1, "dsytrd": 1}
    route = "scipy" if _blas.numpy_lapack() is None else "numpy"
    assert eig._linearization.reduction.lapack.name == route


def test_iterative_primal_reduces_on_first_dense_solve(monkeypatch):
    calls = counting_lapack(monkeypatch)
    A, M = make_pencil([1.0, 1.0, 3.0], 40, 9, mass="random")
    eig = eg.eig_iterative(A, M, 3, tol=1e-12)
    rng = np.random.default_rng(9)
    t = sampling.valid_tangent(eig, M, rng)
    first = eg.jvp(A, M, eig, t)
    assert calls == {"dpotrf": 1, "dsygst": 1, "dsytrd": 1}
    eg.vjp(A, M, eig, sampling.valid_cotangent(eig, M, rng))
    assert calls == {"dpotrf": 1, "dsygst": 1, "dsytrd": 1}
    ref = eg.jvp(A, M, eig, t, solver="iterative")
    np.testing.assert_allclose(first.X_prime, ref.X_prime, atol=1e-7)


def test_iterative_solves_apply_A_to_X_once():
    # the primal's residual P_L A X is the linearization's, made on the first
    # iterative solve and reused by the rest
    A, M = make_pencil([1.0, 1.0, 3.0], 40, 9, mass="random")
    applied = []

    def counted(V):
        applied.append(V.copy())
        return A.apply_batch(V)

    A_counted = eg.SymmetricOperator(40, None, counted)
    eig = eg.eig_iterative(A_counted, M, 3)
    rng = np.random.default_rng(9)
    applied.clear()
    eg.vjp(A_counted, M, eig, sampling.valid_cotangent(eig, M, rng), solver="iterative")
    for _ in range(2):
        eg.jvp(A_counted, M, eig, sampling.valid_tangent(eig, M, rng), solver="iterative")
    assert sum(V.shape == eig.X.shape and np.array_equal(V, eig.X) for V in applied) == 1


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("mass", ["identity", "random"])
def test_pairing_on_one_linearization(solver, mass):
    A, M = make_pencil([1.0, 1.0, 3.0, 3.0, 3.0, 6.0], 20, 7, mass=mass)
    eig = eg.eig_dense(A, M, 6)
    assert [len(g) for g in eig.groups] == [2, 3, 1]
    lin = eg.linearize(A, M, eig)
    rng = np.random.default_rng(7)
    for _ in range(3):
        t = sampling.valid_tangent(eig, M, rng)
        c = sampling.valid_cotangent(eig, M, rng)
        assert pairing_gap(A, M, eig, t, c, solver=solver) < 1e-9
    assert eg.linearize(A, M, eig) is lin


def test_cached_dense_solve_matches_spectral_series():
    A, M = make_pencil([2.0, 2.0, 5.0, 5.0, 5.0], 11, 4, mass="random")
    eig = eg.eig_dense(A, M, 5)
    lin = eg.linearize(A, M, eig)
    fs = eg.full_spectrum(A, M)
    rng = np.random.default_rng(4)
    for _ in range(2):
        B = project_rhs(lin, rng.standard_normal((11, 5)))
        sol = eg.solve_dense(lin, B)
        for j in range(5):
            ref = pseudo_inverse_apply(fs, eig.lambdas[j], B[:, j])
            np.testing.assert_allclose(sol.Y[:, j], ref, atol=1e-9)


@pytest.mark.parametrize("solver", SOLVERS)
def test_group_cut_by_k_raises_cluster_split(solver):
    # lambda = 2 is double but k = 2 retrieves one of its eigenvectors
    A = eg.make_dense(np.diag([1.0, 2.0, 2.0, 3.0, 4.0]))
    M = eg.identity_operator(5)
    eig = eg.eig_dense(A, M, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(ClusterSplit) as excinfo:
        eg.jvp(A, M, eig, sampling.valid_tangent(eig, M, rng), solver=solver)
    assert excinfo.value.defect > 1e-3
    with pytest.raises(ClusterSplit):
        eg.vjp(A, M, eig, sampling.valid_cotangent(eig, M, rng), solver=solver)


def test_group_cut_by_k_largest_raises_cluster_split():
    # lambda = 4 is double at the top of the spectrum, and k = 1 retrieves one
    # of its eigenvectors: the dense solve's banded factor is exactly singular,
    # and the iterative solve meets zero curvature along the missed one
    A = eg.make_dense(np.diag([1.0, 2.0, 3.0, 4.0, 4.0]))
    M = eg.identity_operator(5)
    eig = eg.eig_dense(A, M, 1, which="largest")
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solver in SOLVERS:
            with pytest.raises(ClusterSplit) as excinfo:
                eg.jvp(A, M, eig, sampling.valid_tangent(eig, M, rng), solver=solver)
            assert excinfo.value.defect > 1e-3
            with pytest.raises(ClusterSplit) as excinfo:
                eg.vjp(A, M, eig, sampling.valid_cotangent(eig, M, rng), solver=solver)
            assert excinfo.value.defect > 1e-3


@pytest.mark.parametrize("which", ["smallest", "largest"])
def test_dense_route_on_the_smallest_pencil(which):
    # n = 2, k = 1: a one-reflector reduction and a 2 x 2 banded factor
    A, M = make_pencil([1.0, 3.0], 2, 12, mass="random")
    eig = eg.eig_dense(A, M, 1, which=which)
    t = sampling.valid_tangent(eig, M, np.random.default_rng(12))
    dense, ref = eg.jvp(A, M, eig, t), eg.jvp(A, M, eig, t, solver="iterative")
    np.testing.assert_allclose(dense.X_prime, ref.X_prime, rtol=0, atol=1e-12)


def test_dense_solve_refines_a_group_with_spread():
    # 1 and 1 + 1e-9 merge into one group; the solve at lambda_j leaves a
    # residual along its border that the refinement step removes
    A, M = make_pencil([1.0, 1.0 + 1e-9, 2.0, 3.0], 10, 11, mass="random")
    eig = eg.eig_dense(A, M, 3)
    assert eig.groups == [[0, 1], [2]]
    lin = eg.linearize(A, M, eig)
    fs = eg.full_spectrum(A, M)
    B = project_rhs(lin, np.random.default_rng(11).standard_normal((10, 3)))
    sol = eg.solve_dense(lin, B)
    for j in range(3):
        ref = pseudo_inverse_apply(fs, eig.lambdas[j], B[:, j])
        np.testing.assert_allclose(sol.Y[:, j], ref, rtol=0, atol=1e-12)   # 1e-10 unrefined


def test_near_degenerate_pair_outside_group_tolerance():
    # a relative gap of 1e-6 is above the grouping tolerance, so each column is
    # its own group and X' carries the 1/gap coupling
    A_arr, M_arr = sampling.pencil_from_spectrum([1, 1 + 1e-6, 2, 3, 4, 5, 6, 1000], 8,
                                                 np.random.default_rng(1))
    A, M = eg.make_dense(A_arr), eg.make_spd(M_arr)
    eig = eg.eig_dense(A, M, 3)
    assert eig.groups == [[0], [1], [2]]
    t = sampling.valid_tangent(eig, M, np.random.default_rng(2))
    dense = eg.jvp(A, M, eig, t)
    iterative = eg.jvp(A, M, eig, t, solver="iterative")
    scale = np.max(np.abs(dense.X_prime))
    assert scale > 1e5
    assert np.max(np.abs(dense.X_prime - iterative.X_prime)) < 1e-6 * scale
    fd = eg.finite_difference_jvp(A, M, 3, "smallest", t, step=1e-9, base=eig)
    assert np.max(np.abs(dense.X_prime - fd.X_prime)) < 1e-3 * scale
