"""Property tests: on pencils with repeated eigenvalues, jvp and vjp satisfy
the adjoint pairing and jvp agrees with the series oracle, on both solvers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigengrad as eg
from eigengrad import sampling

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


@pytest.mark.parametrize("solver", ["dense", "iterative"])
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(problems())
def test_pairing_and_series_agree(solver, problem):
    spectrum, n, mass, seed = problem
    rng = np.random.default_rng(seed)
    A_arr, M_arr = sampling.pencil_from_spectrum(spectrum, n, rng, mass=mass)
    A, M = eg.make_dense(A_arr), eg.make_spd(M_arr)
    eig = eg.eig_dense(A, M, len(spectrum))
    t = sampling.valid_tangent(eig, M, rng)
    c = sampling.valid_cotangent(eig, M, rng)

    assert pairing_gap(A, M, eig, t, c, solver=solver) <= 1e-8

    out = eg.jvp(A, M, eig, t, solver=solver)
    ser = eg.jvp_series(eg.full_spectrum(A, M), M, eig, t)
    scale = max(np.max(np.abs(ser.X_prime)), np.max(np.abs(ser.lambda_prime)))
    assert np.max(np.abs(out.X_prime - ser.X_prime)) <= 1e-8 * scale
    assert np.max(np.abs(out.lambda_prime - ser.lambda_prime)) <= 1e-8 * scale
