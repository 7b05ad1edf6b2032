import numpy as np
import pytest
import scipy.sparse.linalg

import eigengrad as eg
from eigengrad import sampling
from eigengrad.errors import MaxIterExceeded, NotSolvable
from eigengrad.sylvester import project_rhs, solve_dense, solve_iterative

from conftest import make_pencil


def linearization(diagonal, lambdas, X, groups):
    """The linearization of (diag(diagonal), I) at the given pairs and groups."""
    eig = eg.EigenResult(X=np.asarray(X, float), lambdas=np.asarray(lambdas, float),
                         groups=groups)
    return eg.linearize(eg.make_dense(np.diag(diagonal)), eg.make_spd(np.eye(3)), eig)


def diag_lin(lambdas, X, groups):
    return linearization([1.0, 2.0, 3.0], lambdas, X, groups)


def degen_lin(lambdas, groups):
    return linearization([2.0, 2.0, 5.0], lambdas, np.eye(3)[:, :2], groups)


@pytest.mark.parametrize("solve", [solve_dense, solve_iterative])
def test_diagonal_shift_solve(solve):
    e1, e2 = np.eye(3)[:, 0], np.eye(3)[:, 1]
    sol = solve(diag_lin([1.0], e1[:, None], [[0]]), e2[:, None])
    np.testing.assert_allclose(sol.Y[:, 0], e2, atol=1e-9)


@pytest.mark.parametrize("solve", [solve_dense, solve_iterative])
def test_degenerate_nullspace_excluded(solve):
    e3 = np.eye(3)[:, 2]
    sol = solve(degen_lin([2.0, 2.0], [[0, 1]]), np.column_stack([e3, np.zeros(3)]))
    np.testing.assert_allclose(sol.Y[:, 0], e3 / 3.0, atol=1e-9)
    assert np.max(np.abs(sol.Y[:2, 0])) < 1e-12


@pytest.mark.parametrize("solve", [solve_dense, solve_iterative])
def test_rhs_in_nullspace_not_solvable(solve):
    e1 = np.eye(3)[:, 0]
    with pytest.raises(NotSolvable) as excinfo:
        solve(degen_lin([2.0, 2.0], [[0, 1]]), np.column_stack([e1, np.zeros(3)]))
    assert excinfo.value.defect > 0.5


@pytest.mark.parametrize("solve", [solve_dense, solve_iterative])
def test_zero_rhs_gives_zero(solve):
    sol = solve(degen_lin([2.0, 2.0], [[0, 1]]), np.zeros((3, 2)))
    np.testing.assert_array_equal(sol.Y, np.zeros((3, 2)))
    assert np.all(sol.iterations == 0)


def test_project_rhs_own_direction():
    X = np.eye(3)[:, :1]
    out = project_rhs(diag_lin([1.0], X, [[0]]), np.eye(3)[:, :1])
    np.testing.assert_allclose(out, np.zeros((3, 1)), atol=1e-15)


def test_project_rhs_orthogonal_unchanged():
    X = np.eye(3)[:, :1]
    B = np.eye(3)[:, 1:2]
    out = project_rhs(diag_lin([1.0], X, [[0]]), B)
    np.testing.assert_array_equal(out, B)


def test_project_rhs_group():
    B = (np.eye(3)[:, 0] + np.eye(3)[:, 2])[:, None]
    # X = the first two columns of I, one group covering both
    out = project_rhs(degen_lin([2.0, 2.0], [[0, 1]]), np.column_stack([B[:, 0], B[:, 0]]))
    np.testing.assert_allclose(out[:, 0], np.eye(3)[:, 2], atol=1e-15)


@pytest.mark.parametrize("seed", range(3))
def test_iterative_agrees_with_dense(seed):
    A, M = make_pencil([2.0, 2.0, 5.0], 8, seed, mass="random")
    eig = eg.eig_dense(A, M, 3)
    rng = np.random.default_rng(seed)
    lin = eg.linearize(A, M, eig)
    B = project_rhs(lin, rng.standard_normal((8, 3)))
    sd = solve_dense(lin, B)
    si = solve_iterative(lin, B)
    np.testing.assert_allclose(si.Y, sd.Y, atol=1e-9)


def test_iterative_residual_self_certifying():
    A, M = make_pencil([], 100, 0, mass="random")
    eig = eg.eig_dense(A, M, 2)
    rng = np.random.default_rng(0)
    lin = eg.linearize(A, M, eig, "iterative")
    B = project_rhs(lin, rng.standard_normal((100, 2)))
    sol = solve_iterative(lin, B)
    bnorms = np.linalg.norm(B, axis=0)
    assert np.all(sol.residuals <= 1e-10 * bnorms * 10)
    assert np.all(sol.iterations > 0)


def test_solution_m_orthogonal_to_group():
    A, M = make_pencil([3.0, 3.0, 3.0], 7, 4, mass="random")
    eig = eg.eig_dense(A, M, 3)
    rng = np.random.default_rng(4)
    lin = eg.linearize(A, M, eig)
    B = project_rhs(lin, rng.standard_normal((7, 3)))
    for sol in (solve_dense(lin, B), solve_iterative(lin, B)):
        gauge = eig.X.T @ eg.as_dense_array(M) @ sol.Y
        assert np.max(np.abs(gauge)) < 1e-9


def test_linearity_in_rhs():
    A, M = make_pencil([], 6, 8, mass="random")
    eig = eg.eig_dense(A, M, 2)
    rng = np.random.default_rng(8)
    lin = eg.linearize(A, M, eig)
    B1 = project_rhs(lin, rng.standard_normal((6, 2)))
    B2 = project_rhs(lin, rng.standard_normal((6, 2)))

    def solve(B):
        return solve_dense(lin, B).Y

    np.testing.assert_allclose(solve(2.0 * B1 - 0.5 * B2),
                               2.0 * solve(B1) - 0.5 * solve(B2), atol=1e-9)


def test_dense_solve_matches_spectral_series():
    A, M = make_pencil([2.0, 2.0, 6.0], 9, 2, mass="random")
    eig = eg.eig_dense(A, M, 3)
    rng = np.random.default_rng(2)
    lin = eg.linearize(A, M, eig)
    B = project_rhs(lin, rng.standard_normal((9, 3)))
    sol = solve_dense(lin, B)
    fs = eg.full_spectrum(A, M)
    for j in range(3):
        ref = eg.pseudo_inverse_apply(fs, eig.lambdas[j], B[:, j])
        np.testing.assert_allclose(sol.Y[:, j], ref, atol=1e-9)


def test_iterative_maxiter_payload():
    A, M = make_pencil([2, 2, 5], 30, 0, mass="random")
    eig = eg.eig_dense(A, M, 3)
    lin = eg.linearize(A, M, eig, "iterative")
    B = project_rhs(lin, np.random.default_rng(0).standard_normal((30, 6)))
    B[:, 4] = 0.0
    with pytest.raises(MaxIterExceeded) as exc:
        solve_iterative(lin, B, maxiter=1)
    sol = exc.value.payload
    assert isinstance(sol, eg.SylvesterSolution)
    np.testing.assert_array_equal(sol.iterations, [1, 1, 1, 1, 0, 1])


def minres_reference(lin, B):
    """Per column, scipy.sparse.linalg.minres on the deflated operator: the
    solves as they ran before the columns shared a block. Column c belongs to
    eigencolumn c mod k; it is copied contiguous, as the lockstep code holds it."""
    eig, n = lin.eig, B.shape[0]
    group = {j: grp for grp in eig.groups for j in grp}
    Y, iterations = np.zeros_like(B), np.zeros(B.shape[1], dtype=int)
    for c in range(B.shape[1]):
        j = c % eig.k
        Xg, MXg = eig.X[:, group[j]], lin.MX[:, group[j]]

        def matvec(v, lam=eig.lambdas[j]):
            s = v.reshape(n, 1) - Xg @ (MXg.T @ v.reshape(n, 1))
            r = lin.A.apply_batch(s) - lam * lin.M.apply_batch(s)
            return r - MXg @ (Xg.T @ r)

        b = np.ascontiguousarray(B[:, c])
        b = b - MXg @ (Xg.T @ b)
        if not np.any(b):
            continue
        steps = []
        y, _ = scipy.sparse.linalg.minres(
            scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=float),
            b, rtol=1e-12, maxiter=20 * n, callback=steps.append)
        Y[:, c], iterations[c] = y - Xg @ (MXg.T @ y), len(steps)
    return Y, iterations


@pytest.mark.parametrize("mass", ["identity", "random"])
def test_lockstep_minres_matches_scipy(mass):
    # MINRES converges in about 20 of n = 60 steps here; where it needs nearly
    # n, one GEMM on the block against scipy's GEMV per column moves Y by up
    # to 1e-11 (see test_lockstep_minres_rounds_as_scipy)
    A, M = make_pencil([1.0, 1.0, 2.0, 2.0, 2.0, 4.0, *np.linspace(10.0, 11.0, 54)], 60, 11,
                       mass=mass)
    eig = eg.eig_dense(A, M, 6)
    assert [len(g) for g in eig.groups] == [2, 3, 1]
    lin = eg.linearize(A, M, eig, "iterative")
    B = project_rhs(lin, np.random.default_rng(11).standard_normal((60, 12)))
    Y_ref, it_ref = minres_reference(lin, B)
    sol = solve_iterative(lin, B)
    np.testing.assert_array_equal(sol.iterations, it_ref)
    assert np.max(np.abs(sol.Y - Y_ref)) <= 1e-12 * np.max(np.abs(Y_ref))


@pytest.mark.parametrize("n", [60, 80])
def test_lockstep_minres_rounds_as_scipy(n):
    # MINRES needs nearly n steps here, so a sum taken in another order moves
    # Y by 1e-12 to 1e-11 and the stopping step by up to 2. Vector closures
    # apply A and M to one contiguous column at a time in both codes, so the
    # lockstep recurrence, rounding as scipy's does, gives its steps and Y
    for seed in range(3):
        for mass in ("identity", "random"):
            A, M = make_pencil([2.0, 2.0, 3.0, 3.0, 3.0, 6.0], n, seed, mass=mass)
            eig = eg.eig_dense(A, M, 6)
            Av, Mv = (eg.SymmetricOperator(n, op.entries.__matmul__) for op in (A, M))
            lin = eg.linearize(Av, Mv, eig, "iterative")
            B = project_rhs(lin, np.random.default_rng(seed).standard_normal((n, 12)))
            Y_ref, it_ref = minres_reference(lin, B)
            sol = solve_iterative(lin, B)
            np.testing.assert_array_equal(sol.iterations, it_ref)
            assert np.max(np.abs(sol.Y - Y_ref)) <= 1e-13 * np.max(np.abs(Y_ref))


def test_lockstep_minres_zero_columns():
    A, M = make_pencil([2.0, 2.0, 5.0], 20, 1, mass="random")
    eig = eg.eig_dense(A, M, 3)
    lin = eg.linearize(A, M, eig, "iterative")
    B = project_rhs(lin, np.random.default_rng(1).standard_normal((20, 6)))
    B[:, [1, 3]] = 0.0
    sol = solve_iterative(lin, B)
    np.testing.assert_array_equal(sol.iterations[[1, 3]], [0, 0])
    np.testing.assert_array_equal(sol.Y[:, [1, 3]], np.zeros((20, 2)))
    assert np.all(sol.iterations[[0, 2, 4, 5]] > 0)


@pytest.mark.parametrize("maxiter", [0, -1])
def test_iterative_maxiter_below_one_is_a_value_error(maxiter):
    A, M = (eg.make_dense(a) for a in sampling.random_spd_pencil(40, np.random.default_rng(0)))
    eig = eg.eig_dense(A, M, 3)
    lin = eg.linearize(A, M, eig, "iterative")
    B = project_rhs(lin, np.random.default_rng(0).standard_normal((40, 3)))
    with pytest.raises(ValueError, match="maxiter"):
        solve_iterative(lin, B, maxiter=maxiter)


def test_block_width_must_be_a_multiple_of_k():
    lin = degen_lin([2.0, 2.0], [[0, 1]])
    for solve in (project_rhs, solve_dense, solve_iterative):
        with pytest.raises(ValueError, match="multiple of k"):
            solve(lin, np.ones((3, 3)))
