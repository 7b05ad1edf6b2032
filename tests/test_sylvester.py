import numpy as np
import pytest

import eigengrad as eg
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
    B = project_rhs(lin, np.random.default_rng(0).standard_normal((30, 3)))
    with pytest.raises(MaxIterExceeded) as exc:
        solve_iterative(lin, B, maxiter=1)
    sol = exc.value.payload
    assert isinstance(sol, eg.SylvesterSolution)
    assert sol.iterations[0] == 1
