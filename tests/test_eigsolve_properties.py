"""Property tests: eig_iterative agrees with eig_dense on pencils with repeated
eigenvalues, a random mass matrix and either end of the spectrum, its
default preconditioner is SPD for every symmetric A, and its positivity
probe passes every well-conditioned SPD M."""

import contextlib

import numpy as np
from hypothesis import given, settings, strategies as st

import eigengrad as eg
from eigengrad import sampling
from eigengrad.eigsolve import CHEB_DEGREE, CHEB_RATIO, _chebyshev, _lanczos_bounds
from eigengrad.errors import MaxIterExceeded


@st.composite
def pencils(draw):
    """(A, M, k, which, seed): the k wanted eigenvalues are whole groups of
    multiplicity 1-3, so k never cuts a group."""
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    taken = draw(st.integers(1, len(mults)))
    k = sum(mults[:taken])
    gaps = draw(st.lists(st.floats(0.2, 2.0), min_size=len(mults), max_size=len(mults)))
    values = 1.0 + np.cumsum(gaps)
    spectrum = [float(v) for v, m in zip(values, mults) for _ in range(m)]
    n = draw(st.integers(max(30, 4 * k + 1), 80))   # above the dense fallback
    which = draw(st.sampled_from(["smallest", "largest"]))
    seed = draw(st.integers(0, 2**16))
    A, M = sampling.pencil_from_spectrum(spectrum, n, np.random.default_rng(seed),
                                         mass="random")
    if which == "largest":   # the prescribed groups become the top of (-A, M)
        A = -A
    return A, M, k, which, seed


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(pencils())
def test_eig_iterative_matches_dense_groups(problem):
    A_arr, M_arr, k, which, seed = problem
    A, M = eg.make_dense(A_arr), eg.make_spd(M_arr)
    it = eg.eig_iterative(A, M, k, which, seed=seed)
    de = eg.eig_dense(A, M, k, which)

    # the stopping rule, on products formed here from the returned pairs
    AX, MX = A_arr @ it.X, M_arr @ it.X
    resid = np.linalg.norm(AX - MX * it.lambdas, axis=0)
    assert np.all(resid <= 1e-9 * (np.linalg.norm(AX, axis=0)
                                   + np.abs(it.lambdas) * np.linalg.norm(MX, axis=0)))

    scale = np.max(np.abs(de.lambdas))
    assert np.max(np.abs(it.lambdas - de.lambdas)) <= 1e-8 * scale
    assert it.groups == de.groups
    for grp in de.groups:
        proj_it = it.X[:, grp] @ it.X[:, grp].T @ M_arr
        proj_de = de.X[:, grp] @ de.X[:, grp].T @ M_arr
        assert np.max(np.abs(proj_it - proj_de)) <= 1e-6
    # the last Rayleigh-Ritz step whitens in M, degenerate groups included
    assert np.max(np.abs(it.X.T @ M_arr @ it.X - np.eye(k))) <= 1e-13


@st.composite
def indefinite(draw):
    """A symmetric array of order 2-20 with eigenvalues of both signs, the
    largest at least 1 and none beyond 10 in magnitude."""
    spectrum = ([draw(st.floats(-10.0, -0.1)), draw(st.floats(1.0, 10.0))]
                + draw(st.lists(st.floats(-10.0, 10.0), max_size=18)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    Q = sampling.random_orthogonal(len(spectrum), rng)
    return (Q * spectrum) @ Q.T, max(spectrum)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(indefinite())
def test_chebyshev_preconditioner_is_spd_for_any_symmetric_operator(problem):
    # odd degree: 1 - x q(x) = T_d(y) / T_d(sigma) keeps q > 0 on the real
    # line, whether the interval's top comes from Lanczos or is too low
    A_arr, lam_max = problem
    A, n = eg.make_dense(A_arr), A_arr.shape[0]
    assert CHEB_DEGREE % 2 == 1
    for beta in (_lanczos_bounds(A, 0)[1], lam_max / 2):
        precond = _chebyshev(A, beta / CHEB_RATIO, beta)
        Q = precond.apply_batch(np.eye(n))
        scale = np.max(np.abs(Q))
        assert np.max(np.abs(Q - Q.T)) <= 1e-12 * scale
        assert np.linalg.eigvalsh(0.5 * (Q + Q.T)).min() > 0


@st.composite
def spd_masses(draw):
    """(M, its smallest and largest eigenvalue, seed): a symmetric positive
    definite array of order 2-60 with condition number at most 1e8, at a
    random scale."""
    n = draw(st.integers(2, 60))
    exponents = draw(st.lists(st.floats(0.0, 8.0), min_size=n, max_size=n))
    w = 10.0 ** (draw(st.floats(-6.0, 6.0)) + np.array(exponents))
    seed = draw(st.integers(0, 2**16))
    Q = sampling.random_orthogonal(n, np.random.default_rng(seed))
    return (Q * w) @ Q.T, w.min(), w.max(), seed


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(spd_masses())
def test_positivity_probe_never_rejects_a_well_conditioned_spd_mass(problem):
    # eig_iterative's rule on M's Lanczos bounds: Ritz values interlace, so the
    # smallest is at least lambda_min >= 1e-8 lambda_max, and the bound on the
    # largest is at most 2 lambda_max
    M_arr, w_min, w_max, seed = problem
    low, high = _lanczos_bounds(eg.make_spd(M_arr), seed)
    assert low >= w_min - 1e-13 * w_max
    assert low > 1e-12 * high
    A = eg.make_dense(np.diag(np.arange(1.0, M_arr.shape[0] + 1)))
    with contextlib.suppress(MaxIterExceeded):    # one step: only the probe is tested
        eg.eig_iterative(A, eg.make_spd(M_arr), 1, maxiter=1, seed=seed)
