import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import splu

import eigengrad as eg
from eigengrad import sampling
from eigengrad.eigsolve import (CHEB_MAX_DEGREE, GUARD, LANCZOS_STEPS, _whitening,
                                group_mask)
from eigengrad.errors import (DimensionMismatch, MaxIterExceeded, NonFiniteError,
                              NotPositiveDefinite)

from conftest import make_pencil, membrane


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


def test_eig_dense_not_positive_definite_from_cholesky():
    A, M = make_pencil([], 10, 2, mass="random")
    Md = eg.as_dense_array(M)
    Md[4, 4] = -1e-3 - np.sum(np.abs(Md[4])) + abs(Md[4, 4])   # one negative direction
    with pytest.raises(NotPositiveDefinite, match="dpotrf info 5"):
        eg.eig_dense(A, eg.make_spd(Md), 3)


@pytest.mark.parametrize("which", ["smallest", "largest"])
@pytest.mark.parametrize("mass", ["identity", "random"])
@pytest.mark.parametrize("mult", [1, 2, 3])
def test_eig_dense_matches_scipy_eigh(which, mass, mult):
    # the extremal group has multiplicity mult at either end of the spectrum
    n, k = 16, 5
    spectrum = [1.0] * mult + [2.0, 3.5, 4.0] + list(np.linspace(5.0, 9.0, n - mult - 6)) \
        + [10.0] * mult
    A, M = make_pencil(spectrum, n, mult, mass=mass)
    Ad, Md = eg.as_dense_array(A), eg.as_dense_array(M)
    sel = [0, k - 1] if which == "smallest" else [n - k, n - 1]
    lam, U = scipy.linalg.eigh(Ad, Md, subset_by_index=sel)
    res = eg.eig_dense(A, M, k, which=which)
    np.testing.assert_allclose(res.lambdas, lam, rtol=1e-12)
    assert mult in [len(g) for g in res.groups]
    for grp in res.groups:
        np.testing.assert_allclose(res.X[:, grp] @ res.X[:, grp].T @ Md,
                                   U[:, grp] @ U[:, grp].T @ Md, rtol=0, atol=1e-10)
    # the mapped eigenvectors of T are M-orthonormal as they come, groups included
    assert np.max(np.abs(res.X.T @ Md @ res.X - np.eye(k))) <= 1e-13


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_degeneracy_rejects_a_non_finite_eigenvalue(bad):
    with pytest.raises(ValueError, match="finite"):
        eg.build_degeneracy([1.0, bad, 3.0])


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("operand", ["A", "M"])
@pytest.mark.parametrize("solve, n", [(eg.eig_dense, 40), (eg.eig_iterative, 10),
                                      (eg.eig_iterative, 40)])
def test_non_finite_closure_raises_non_finite_error(solve, n, operand, bad):
    # n = 10 takes eig_iterative's dense fallback; its closures reach the
    # reduction through as_dense_array
    d = np.arange(1.0, n + 1)
    ops = {"A": eg.SymmetricOperator(n, None, lambda V: d[:, None] * V),
           "M": eg.SymmetricOperator(n, None, lambda V: V)}
    ops[operand] = eg.SymmetricOperator(n, None, lambda V: np.full_like(V, bad))
    with pytest.raises(NonFiniteError, match="finite"):
        solve(ops["A"], ops["M"], 2)


def test_whitening_drops_a_dependent_direction_and_rejects_an_indefinite_gram():
    B = np.random.default_rng(0).standard_normal((8, 3))
    B = np.hstack([B, B[:, :1] - 2.0 * B[:, 2:]])    # 4 columns of rank 3
    G = B.T @ B
    F = _whitening(G)
    assert F.shape == (4, 3)
    np.testing.assert_allclose(F.T @ G @ F, np.eye(3), atol=1e-12)
    with pytest.raises(NotPositiveDefinite, match="eigenvalue -1.000e-03"):
        _whitening(np.diag([1.0, -1e-3, 2.0]))


@pytest.mark.parametrize("solve", [eg.eig_dense, eg.eig_iterative])
def test_mismatched_pencil_is_a_dimension_mismatch_before_any_work(solve):
    def untouched(V):
        pytest.fail("M was applied before the dimensions were checked")

    M = eg.SymmetricOperator(39, None, untouched)
    with pytest.raises(DimensionMismatch, match="A has dim 40 but M has dim 39"):
        solve(eg.make_dense(np.eye(40)), M, 2)


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
    # M = I but for one negative diagonal entry has two distinct eigenvalues,
    # so two Lanczos steps of the positivity probe span an invariant subspace
    # and find the negative one exactly
    Md = np.eye(60)
    Md[5, 5] = -1e-3
    with pytest.raises(NotPositiveDefinite):
        eg.eig_iterative(eg.make_dense(np.eye(60)), eg.make_spd(Md), 3)


@pytest.mark.parametrize("generator, seed, j, k", [
    (sampling.pencil_from_spectrum, 0, 5, 3), (sampling.pencil_from_spectrum, 1, 5, 3),
    (sampling.pencil_from_spectrum, 2, 5, 3), (sampling.random_spd_pencil, 0, 7, 4)])
def test_eig_iterative_rejects_one_negative_mass_entry(generator, seed, j, k):
    # M = I except M_jj = -1e-3: each random probe's <v, M v> is positive and,
    # on these generic A, no Gram matrix in the loop turns indefinite; the
    # positivity probe's second Lanczos vector, the part of M v off v, finds e_j
    args = ([], 60) if generator is sampling.pencil_from_spectrum else (60,)
    A_arr, _ = generator(*args, np.random.default_rng(seed))
    Md = np.eye(60)
    Md[j, j] = -1e-3
    with pytest.raises(NotPositiveDefinite):
        eg.eig_iterative(eg.make_dense(A_arr), eg.make_spd(Md), k)


@pytest.mark.parametrize("n", [60, 200])
@pytest.mark.parametrize("seed", range(3))
def test_eig_iterative_rejects_a_mass_matrix_with_one_negative_eigenvalue(n, seed):
    # M = Q diag(w) Q^T, w ~ U[1, 2] but for w_0 = -1e-3: no axis is special,
    # and the iteration returns positive Ritz values when M is not probed
    rng = np.random.default_rng(seed)
    A_arr, _ = sampling.random_spd_pencil(n, rng)
    Q = sampling.random_orthogonal(n, rng)
    w = rng.uniform(1.0, 2.0, n)
    w[0] = -1e-3
    with pytest.raises(NotPositiveDefinite, match="positivity probe"):
        eg.eig_iterative(eg.make_dense(A_arr), eg.make_spd((Q * w) @ Q.T), 3, seed=seed)


def _untouched(n):
    """An operator of dim n that fails the test when it is applied."""
    def apply(V):
        pytest.fail("an operator was applied before the arguments were checked")
    return eg.SymmetricOperator(n, None, apply)


@pytest.mark.parametrize("k", [2.0, True, "2", None, np.float64(2.0), 0, np.int64(40)],
                         ids=["float", "bool", "str", "None", "np.float64", "zero", "n"])
@pytest.mark.parametrize("solve", [eg.eig_dense, eg.eig_iterative])
def test_k_must_be_an_integer_in_range(solve, k):
    with pytest.raises(ValueError, match="need 1 <= k < n"):
        solve(_untouched(40), _untouched(40), k)


@pytest.mark.parametrize("solve", [eg.eig_dense, eg.eig_iterative])
def test_k_may_be_a_numpy_integer(solve):
    A, M = make_pencil([], 30, 3, mass="random")
    res = solve(A, M, np.int64(3))
    np.testing.assert_allclose(res.lambdas, eg.eig_dense(A, M, 3).lambdas, rtol=1e-8)


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
def test_eig_iterative_rejects_a_tol_outside_zero_to_inf(tol):
    with pytest.raises(ValueError, match="need 0 < tol < inf"):
        eg.eig_iterative(_untouched(40), _untouched(40), 3, tol=tol)


@pytest.mark.parametrize("tol_rel", [np.nan, -1.0, np.inf])
def test_build_degeneracy_rejects_a_tol_rel_outside_zero_to_inf(tol_rel):
    with pytest.raises(ValueError, match="need 0 <= tol_rel < inf"):
        eg.build_degeneracy([1.0, 1.0, 2.0], tol_rel=tol_rel)
    assert eg.build_degeneracy([1.0, 1.0, 2.0], tol_rel=0.0) == [[0, 1], [2]]


@pytest.mark.parametrize("precond, got", [(lambda R: R[:, :1], r"\(40, 1\)"),
                                          (lambda R: R.T, r"\(5, 40\)")],
                         ids=["one-column", "transposed"])
def test_wrong_shape_preconditioner_is_a_dimension_mismatch(precond, got):
    A, M = make_pencil([], 40, 3, mass="random")
    with pytest.raises(DimensionMismatch, match=rf"returned shape {got}"):
        eg.eig_iterative(A, M, 3, precond=precond)


def test_eig_iterative_reaches_tight_tol():
    # converged columns get no new directions (soft locking); without it 7 of
    # these 40 pencils raise MaxIterExceeded at 3e-15
    for s in range(40):
        A_arr, M_arr = sampling.random_spd_pencil(60, np.random.default_rng(s))
        eg.eig_iterative(eg.make_dense(A_arr), eg.make_spd(M_arr), 4, tol=3e-15)


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


def test_eig_iterative_maxiter_payload_pairs_lambdas_with_X():
    A, M = make_pencil([], 30, 3, mass="random")
    with pytest.raises(MaxIterExceeded) as excinfo:
        eg.eig_iterative(A, M, 3, maxiter=3, tol=1e-14)
    best = excinfo.value.payload
    X = best.X
    rayleigh = (np.sum(X * (A.entries @ X), axis=0)
                / np.sum(X * (eg.as_dense_array(M) @ X), axis=0))
    np.testing.assert_allclose(best.lambdas, rayleigh, rtol=1e-10)


def _counted_primal(maxiter, **kwargs):
    """Apply counts of a maxiter-bounded eig_iterative on an n = 200 pencil, and b."""
    n, k = 200, 4
    A_arr, M_arr = sampling.pencil_from_spectrum([], n, np.random.default_rng(4),
                                                 mass="random")
    counts = {"A": 0, "M": 0}
    with pytest.raises(MaxIterExceeded):
        eg.eig_iterative(_counting(A_arr, counts, "A"), _counting(M_arr, counts, "M"),
                         k, maxiter=maxiter, tol=1e-14, **kwargs)
    return counts, min(k + GUARD, n // 4)   # the block width, guard columns included


def test_eig_iterative_applies_each_operator_once_per_direction():
    # an explicit preconditioner, the identity here, replaces the default
    maxiter = 10
    counts, b = _counted_primal(maxiter, precond=lambda R: R)
    assert counts["A"] <= (maxiter + 3) * b
    # the positivity probe adds at most LANCZOS_STEPS single columns, within
    # this bound: the iteration stops short of (maxiter + 3) b
    assert counts["M"] <= (maxiter + 3) * b + 10


def test_default_preconditioner_costs_its_lanczos_and_chebyshev_applies():
    # LANCZOS_STEPS single-vector applies once, then at most
    # CHEB_MAX_DEGREE - 1 per preconditioned column, whatever degree the
    # bounds give; M's count is the unpreconditioned bound
    maxiter = 10
    counts, b = _counted_primal(maxiter)
    assert counts["A"] <= (LANCZOS_STEPS + (maxiter + 3) * b
                           + (CHEB_MAX_DEGREE - 1) * maxiter * b)
    assert counts["A"] > (maxiter + 3) * b
    assert counts["M"] <= (maxiter + 3) * b + 10


def _default_precond_cost(A_arr, M_arr, k):
    """(A applies per column of the default preconditioner eig_iterative
    builds, calls of M in that solve)."""
    counts = {"A": 0, "M": 0}

    def apply_m(V):
        counts["M"] += 1
        return M_arr @ V
    A = _counting(A_arr, counts, "A")
    M = eg.SymmetricOperator(A.dim, None, apply_m)
    eig = eg.eig_iterative(A, M, k)
    m_calls, counts["A"] = counts["M"], 0
    eg.linearize(A, M, eig).precond.apply_batch(np.ones((A.dim, 1)))
    return counts["A"], m_calls


def test_default_preconditioner_degree_follows_the_lanczos_condition():
    # verify's iter50 pencils: 12 Lanczos steps bound A's condition by 14-34,
    # so degree 5-7 meets the contraction target
    for s in range(10):
        A_arr, M_arr = sampling.random_spd_pencil(50, np.random.default_rng(s))
        applies, _ = _default_precond_cost(A_arr, M_arr, 3)
        assert 4 <= applies <= 6
    # the 63 x 63 membrane's bounds read a condition near 100: a higher
    # degree, and fewer LOBPCG steps. Each step calls M once, besides the
    # probe's LANCZOS_STEPS, the start block and the explicit Rayleigh-Ritz
    # reruns; the fixed degree 5 on [beta / 30, beta] called it 59 times here
    # (about 44 steps), this default 37 (about 22)
    applies, m_calls = _default_precond_cost(*membrane(63), 6)
    assert 8 <= applies <= CHEB_MAX_DEGREE - 1
    assert m_calls <= 45


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("diagonal", [[2.0], [1.0, 3.0]])
def test_default_preconditioner_on_a_collapsed_interval(diagonal):
    # A = 2 I makes the Lanczos space invariant after one step, so theta_min =
    # beta; a two-valued A after two. q(A) stays finite, the eigenpairs right
    n, k = 40, 3
    A_arr = np.diag(np.resize(diagonal, n))
    _, M_arr = sampling.random_spd_pencil(n, np.random.default_rng(6))
    A, M = eg.make_dense(A_arr), eg.make_spd(M_arr)
    it = eg.eig_iterative(A, M, k)
    assert eg.linearize(A, M, it).precond is not None
    np.testing.assert_allclose(it.lambdas, eg.eig_dense(A, M, k).lambdas, rtol=1e-10)
    AX, MX = A_arr @ it.X, M_arr @ it.X
    assert np.all(np.linalg.norm(AX - MX * it.lambdas, axis=0)
                  <= 1e-9 * (np.linalg.norm(AX, axis=0)
                             + it.lambdas * np.linalg.norm(MX, axis=0)))
    np.testing.assert_allclose(it.X.T @ MX, np.eye(k), atol=1e-12)


def test_indefinite_or_largest_gets_no_default_preconditioner():
    n, k = 200, 4
    rng = np.random.default_rng(5)
    Q = sampling.random_orthogonal(n, rng)
    A = eg.make_dense((Q * rng.uniform(-5.0, 5.0, n)) @ Q.T)
    M = eg.make_spd(np.eye(n))
    eig = eg.eig_iterative(A, M, k)
    assert eg.linearize(A, M, eig).precond is None
    A_arr, M_arr = sampling.pencil_from_spectrum([], n, rng, mass="random")
    A, M = eg.make_dense(A_arr), eg.make_spd(M_arr)
    assert eg.linearize(A, M, eg.eig_iterative(A, M, k)).precond is not None
    assert eg.linearize(A, M, eg.eig_iterative(A, M, k, "largest")).precond is None


def test_eig_iterative_preconditioned_membrane():
    K, Mm = membrane(15)
    k = 4
    de = eg.eig_dense(eg.make_dense(K.toarray()), eg.make_spd(Mm.toarray()), k)
    runs = {}
    for name, precond in (("plain", None), ("precond", splu(K.tocsc()).solve)):
        counts = {"A": 0, "M": 0}
        res = eg.eig_iterative(_counting(K, counts, "A"), _counting(Mm, counts, "M"), k,
                               precond=precond)
        np.testing.assert_allclose(res.lambdas, de.lambdas, rtol=1e-8)
        assert res.groups == [[0], [1, 2], [3]]
        runs[name] = counts["A"]
    assert runs["precond"] <= runs["plain"] / 2
