"""Property tests: on pencils with repeated eigenvalues, jvp and vjp satisfy
the adjoint pairing, and jvp agrees with the series oracle and with finite
differences, on both solvers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigengrad as eg
from eigengrad import oracle, sampling

from conftest import pairing_gap


@st.composite
def problems(draw):
    """(spectrum, n, mass, seed): 1-3 distinct values, each of multiplicity 1-3,
    gaps in [0.3, 2]; k is their total, so k never cuts a group."""
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    gaps = draw(st.lists(st.floats(0.3, 2.0), min_size=len(mults), max_size=len(mults)))
    values = 1.0 + np.cumsum(gaps)
    spectrum = [float(v) for v, m in zip(values, mults) for _ in range(m)]
    n = draw(st.integers(len(spectrum) + 3, 24))
    mass = draw(st.sampled_from(["identity", "random"]))
    seed = draw(st.integers(0, 2**16))
    return spectrum, n, mass, seed


def instance(problem):
    """(A, M, eig, rng) for a drawn problem; rng continues the pencil's stream."""
    spectrum, n, mass, seed = problem
    rng = np.random.default_rng(seed)
    A_arr, M_arr = sampling.pencil_from_spectrum(spectrum, n, rng, mass=mass)
    A, M = eg.make_dense(A_arr), eg.make_spd(M_arr)
    return A, M, eg.eig_dense(A, M, len(spectrum)), rng


@pytest.mark.parametrize("solver", ["dense", "iterative"])
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(problems())
def test_pairing_and_series_agree(solver, problem):
    A, M, eig, rng = instance(problem)
    t = sampling.valid_tangent(eig, M, rng)
    c = sampling.valid_cotangent(eig, M, rng)

    assert pairing_gap(A, M, eig, t, c, solver=solver) <= 1e-8

    out = eg.jvp(A, M, eig, t, solver=solver)
    ser = oracle.jvp_series(oracle.full_spectrum(A, M), M, eig, t)
    scale = max(np.max(np.abs(ser.X_prime)), np.max(np.abs(ser.lambda_prime)))
    assert np.max(np.abs(out.X_prime - ser.X_prime)) <= 1e-8 * scale
    assert np.max(np.abs(out.lambda_prime - ser.lambda_prime)) <= 1e-8 * scale


@pytest.mark.parametrize("solver", ["dense", "iterative"])
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(problems())
def test_finite_differences_agree(solver, problem):
    # verify's comparison against a plain central difference (verify itself
    # extrapolates from h and 2h): singleton columns one by one; a group
    # through its trace rate and projector derivative, since its single rates
    # are only O(step) once the step splits it
    A, M, eig, rng = instance(problem)
    t = sampling.valid_tangent(eig, M, rng)
    out = eg.jvp(A, M, eig, t, solver=solver)
    fd = oracle.finite_difference_jvp(A, M, eig.k, eig.which, t, step=1e-5, base=eig)
    lam_scale = max(1.0, np.max(np.abs(out.lambda_prime)))
    for grp in eig.groups:
        if len(grp) == 1:
            j = grp[0]
            x = out.X_prime[:, j]
            assert abs(out.lambda_prime[j] - fd.lambda_prime[j]) <= 1e-7 * lam_scale
            assert np.max(np.abs(x - fd.X_prime[:, j])) <= 1e-6 * max(1.0, np.max(np.abs(x)))
        else:
            trace_err = abs(np.sum(out.lambda_prime[grp]) - np.sum(fd.lambda_prime[grp]))
            assert trace_err <= 1e-7 * lam_scale
            P = oracle.analytic_projector_derivative(eig, out, M, t.Mprime, grp)
            P_err = np.max(np.abs(P - fd.proj_prime[tuple(grp)]))
            assert P_err <= 1e-6 * max(1.0, np.max(np.abs(P)))
