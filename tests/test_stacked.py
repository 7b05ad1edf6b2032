"""Stacked directions: eg.jvp and eg.vjp take a sequence of directions, check
them all, and solve them as one right-hand block; each output equals its
single call."""

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import eigengrad as eg
from eigengrad import sampling
from eigengrad.errors import NonFiniteError, NotAnOperator, ValidityViolated

from conftest import make_pencil
from test_derivative_properties import instance, problems
from test_linearize import counting_lapack


def rel_gap(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("solver", ["dense", "iterative"])
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(problems(), st.sampled_from([1, 2, 5]))
# n > NB: the dense maps run over several blocks (dense-n1000's spectrum)
@example(([1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 5.0], 150, "random", 0), 5)
def test_stacked_equals_single_calls(solver, problem, s):
    A, M, eig, rng = instance(problem)
    ts = [sampling.valid_tangent(eig, M, rng) for _ in range(s)]
    cs = [sampling.valid_cotangent(eig, M, rng) for _ in range(s)]
    fwds = eg.jvp(A, M, eig, ts, solver=solver)
    bwds = eg.vjp(A, M, eig, cs, solver=solver)
    assert isinstance(fwds, list) and len(fwds) == s
    assert isinstance(bwds, list) and len(bwds) == s
    for t, fwd in zip(ts, fwds):
        one = eg.jvp(A, M, eig, t, solver=solver)
        assert rel_gap(fwd.X_prime, one.X_prime) <= 1e-12
        np.testing.assert_array_equal(fwd.lambda_prime, one.lambda_prime)
        assert fwd.validity_defect == one.validity_defect
    for c, bwd in zip(cs, bwds):
        one = eg.vjp(A, M, eig, c, solver=solver)
        for bar in (bwd.A_bar, bwd.M_bar):
            assert isinstance(bar, eg.LowRank) and bar.U.shape == eig.X.shape
        assert rel_gap(np.asarray(bwd.A_bar), np.asarray(one.A_bar)) <= 1e-12
        assert rel_gap(np.asarray(bwd.M_bar), np.asarray(one.M_bar)) <= 1e-12


@pytest.fixture
def degenerate():
    A, M = make_pencil([2.0, 2.0, 5.0], 12, 3, mass="random")
    eig = eg.eig_dense(A, M, 3)
    return A, M, eig, np.random.default_rng(3)


def test_one_element_list_gives_a_list(degenerate):
    A, M, eig, rng = degenerate
    t, c = sampling.valid_tangent(eig, M, rng), sampling.valid_cotangent(eig, M, rng)
    [fwd], [bwd] = eg.jvp(A, M, eig, [t]), eg.vjp(A, M, eig, (c,))
    np.testing.assert_array_equal(fwd.X_prime, eg.jvp(A, M, eig, t).X_prime)
    np.testing.assert_array_equal(bwd.A_bar, eg.vjp(A, M, eig, c).A_bar)


def test_violating_direction_fails_the_stack_before_any_solve(degenerate, monkeypatch):
    A, M, eig, rng = degenerate
    solves = []
    for mode in ("jvp", "vjp"):
        for route in ("solve_dense", "solve_iterative"):
            monkeypatch.setattr(importlib.import_module(f"eigengrad.{mode}"), route,
                                lambda *args: solves.append(args))
    ts = [sampling.valid_tangent(eig, M, rng),
          sampling.violating_tangent(eig, M, eig.groups[0])]
    cs = [sampling.valid_cotangent(eig, M, rng),
          sampling.violating_cotangent(eig, M, eig.groups[0])]
    for derive, ds in ((eg.jvp, ts), (eg.vjp, cs)):
        for d, solver in itertools.product((ds, ds[1]), ("dense", "iterative")):
            with pytest.raises(ValidityViolated):
                derive(A, M, eig, d, solver=solver)
    assert solves == []


def test_non_finite_direction_fails_the_stack(degenerate):
    A, M, eig, rng = degenerate
    n = eig.X.shape[0]
    nan = eg.SymmetricOperator(n, lambda v: np.full(n, np.nan))
    ts = [sampling.valid_tangent(eig, M, rng),
          eg.TangentInput(Aprime=nan, Mprime=eg.make_dense(np.zeros((n, n))))]
    bad = sampling.valid_cotangent(eig, M, rng)
    bad.X_bar[0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        eg.jvp(A, M, eig, ts)
    with pytest.raises(NonFiniteError):
        eg.vjp(A, M, eig, [sampling.valid_cotangent(eig, M, rng), bad])


@pytest.mark.parametrize("bad", ["abc", None, 3.0, {"A": 1}, np.zeros(2)],
                         ids=["str", "None", "float", "dict", "ndarray"])
def test_anything_but_a_direction_or_a_list_of_them_is_a_type_error(degenerate, bad):
    # raised before any apply: the operators here fail the test when applied
    _, M, eig, rng = degenerate
    n = eig.X.shape[0]

    def untouched(V):
        pytest.fail("an operator was applied before the directions were checked")

    op = eg.SymmetricOperator(n, None, untouched)
    t, c = eg.TangentInput(Aprime=op, Mprime=op), sampling.valid_cotangent(eig, M, rng)
    for derive, good in ((eg.jvp, t), (eg.vjp, c)):
        for arg in (bad, [good, bad], (bad,)):
            with pytest.raises(TypeError, match="or a list or tuple of them"):
                derive(op, op, eig, arg)
    with pytest.raises(TypeError, match="expected a TangentInput"):
        eg.jvp(op, op, eig, c)


def test_all_zero_x_bar_stack_builds_nothing(monkeypatch):
    # an iterative primal leaves the dense reduction to the first dense solve
    A, M = make_pencil([], 40, 6, mass="random")
    eig = eg.eig_iterative(A, M, 3)
    calls = counting_lapack(monkeypatch)
    cs = [eg.CotangentInput(lambda_bar=np.full(3, float(i)), X_bar=np.zeros((40, 3)))
          for i in range(3)]
    outs = eg.vjp(A, M, eig, cs)
    assert calls == {}
    assert not {"reduction", "band"} & set(vars(eg.linearize(A, M, eig)))
    np.testing.assert_array_equal(outs[0].A_bar, np.zeros((40, 40)))
    np.testing.assert_allclose(outs[2].A_bar, 2.0 * eig.X @ eig.X.T, rtol=1e-14)


@pytest.mark.parametrize("solver", ["dense", "iterative"])
def test_empty_sequence_gives_an_empty_list(degenerate, solver):
    A, M, eig, _ = degenerate
    lin, applied = eig._linearization, []

    def counted(op):
        return eg.SymmetricOperator(op.dim, None, lambda V: applied.append(V) or op.apply_batch(V))

    Ac, Mc = counted(A), counted(M)
    assert eg.jvp(Ac, Mc, eig, [], solver=solver) == []
    assert eg.vjp(Ac, Mc, eig, (), solver=solver) == []
    assert applied == [] and eig._linearization is lin


@pytest.mark.parametrize("mode", ["jvp", "vjp"])
def test_raw_arrays_are_rejected_even_for_an_empty_sequence(degenerate, mode):
    eig = degenerate[2]
    with pytest.raises(NotAnOperator):
        getattr(eg, mode)(np.eye(12), np.eye(12), eig, [])
