import ctypes
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import eigengrad as eg
from eigengrad import _blas, oracle, sampling, sylvester
from eigengrad._blas import NUMPY_LAPACK_MIN_N, reduction_lapack
from eigengrad.errors import (ClusterSplit, DimensionMismatch, MaxIterExceeded,
                              NotPositiveDefinite)
from eigengrad.sylvester import NB, Reduction, project_rhs, solve_dense, solve_iterative

from conftest import make_pencil, membrane, pseudo_inverse_apply, sparse_ops


def linearization(diagonal, lambdas, X, groups):
    """The linearization of (diag(diagonal), I) at the given pairs and groups."""
    eig = eg.EigenResult(X=np.asarray(X, float), lambdas=np.asarray(lambdas, float),
                         groups=groups)
    return eg.linearize(eg.make_dense(np.diag(diagonal)), eg.make_spd(np.eye(3)), eig)


def diag_lin(lambdas, X, groups):
    return linearization([1.0, 2.0, 3.0], lambdas, X, groups)


def degen_lin(lambdas, groups):
    return linearization([2.0, 2.0, 5.0], lambdas, np.eye(3)[:, :2], groups)


def reference_factors(A, M, lapack):
    """(L, Q, tau) by the reduction's LAPACK calls on ``lapack``, the library
    its reduction ran on, routed as the reduction routes them (scipy's held
    at one thread); Q = diag(1, Q~) formed explicitly by dorgqr from dsytrd's
    reflectors."""
    with reduction_lapack(len(A)) as routed:
        assert routed is lapack
        L = lapack.dpotrf(np.array(M, order="F"))[0]
        C, _, _, tau = lapack.dsytrd(lapack.dsygst(np.array(A, order="F"), L))
    Q = np.eye(len(A))
    Q[1:, 1:] = scipy.linalg.lapack.dorgqr(C[1:, :-1], tau)[0]
    return np.tril(L), Q, tau


def loaded_openblas(package):
    """The OpenBLAS libraries /proc/self/maps lists under ``package``'s wheel
    directories, found apart from eigengrad, as ctypes handles."""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("lists loaded libraries through /proc/self/maps")
    root = os.path.dirname(package.__file__)
    wheel_dirs = (os.path.join(root + ".libs", ""), os.path.join(root, ".dylibs", ""))
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = {f[5].strip() for f in (line.split(None, 5) for line in fh) if len(f) == 6}
    return [ctypes.CDLL(path) for path in sorted(paths)
            if "openblas" in os.path.basename(path) and path.startswith(wheel_dirs)]


def openblas_getter(package):
    """The thread-count getter of the OpenBLAS ``package`` loaded from its
    wheel, or None, probed for the spellings bench/common.py reads."""
    for lib in loaded_openblas(package):
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                return get
    return None


def numpy_lapack_or_skip():
    found = _blas.numpy_lapack()
    if found is None:
        pytest.skip("numpy loads no OpenBLAS of its own with an ILP64 LAPACK")
    return found


def test_lookup_finds_the_openblas_scipy_vendors():
    # fails, not skips, where scipy's wheel has an OpenBLAS the lookup misses,
    # so the one-thread scope cannot silently do nothing there
    get, found = openblas_getter(scipy), _blas.scipy_openblas()
    assert (found is None) == (get is None)
    if found is not None:
        assert found[0]() == get()


def test_reduction_runs_scipy_lapack_on_one_thread_and_restores_the_count(monkeypatch):
    get = openblas_getter(scipy)
    if get is None:
        pytest.skip("scipy loads no OpenBLAS of its own")
    setter = _blas.scipy_openblas()[1]
    seen = []
    for name in ("dpotrf", "dsytrd"):
        def wrapped(*args, _call=getattr(scipy.linalg.lapack, name), **kwargs):
            seen.append(get())
            return _call(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg.lapack, name, wrapped)
    A, M = make_pencil([], 70, 0, mass="random")
    before = get()
    try:
        setter(2)    # a count one thread differs from, on any core count
        Reduction(A, M)
        assert seen == [1, 1] and get() == 2
        with pytest.raises(NotPositiveDefinite):
            Reduction(A, eg.make_dense(-np.eye(70)))
        assert seen == [1, 1, 1] and get() == 2
    finally:
        setter(before)


def test_scopes_in_many_threads_hold_one_thread_and_restore_the_count():
    count = [3]
    scope = _blas._OneThread(lambda: (lambda: count[0], lambda c: count.__setitem__(0, c)))
    inside = []

    def work():
        for _ in range(300):
            with scope():
                inside.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(inside) == 8 * 300 and set(inside) == {1}
    assert count[0] == 3 and scope.open == 0


@pytest.mark.parametrize("lib", ["none loads", "no getter and setter"])
def test_lookup_gives_none_without_a_usable_library(monkeypatch, lib):
    # a vendored path that is not loaded (RTLD_NOLOAD fails), or a library
    # that exports no thread-count pair: no lookup, and a scope changes nothing
    monkeypatch.setattr(_blas.glob, "glob", lambda pattern: [pattern.replace("*", "")])
    if lib == "no getter and setter":
        monkeypatch.setattr(_blas.ctypes, "CDLL", lambda path, mode=0: object())
    _blas.scipy_openblas.cache_clear()
    try:
        assert _blas.scipy_openblas() is None
        scope = _blas._OneThread(_blas.scipy_openblas)
        with scope():
            assert scope.open == 1
        assert scope.open == 0
    finally:
        _blas.scipy_openblas.cache_clear()


def test_numpy_lapack_works_on_a_copy_where_it_cannot_work_in_place():
    # a C-ordered or read-only array, as an operator's closure may return:
    # the binding, like scipy's wrappers, factors a Fortran-ordered copy
    lapack = numpy_lapack_or_skip()
    _, M = make_pencil([], 6, 0, mass="random")
    M = eg.as_dense_array(M)
    M[0, 5] += 1.0    # an upper triangle the factor must not read
    ref = scipy.linalg.lapack.dpotrf(M, lower=1)[0]
    frozen = np.asfortranarray(M)
    frozen.flags.writeable = False
    for a in (np.ascontiguousarray(M), frozen):
        before = a.copy()
        L, info = lapack.dpotrf(a)
        assert info == 0 and L.flags.f_contiguous and L is not a
        np.testing.assert_array_equal(a, before)
        np.testing.assert_allclose(np.tril(L), np.tril(ref), rtol=1e-14, atol=1e-14)


def test_numpy_lapack_without_ilp64_symbols_falls_back_to_scipy(monkeypatch):
    # an LP64 build exports plain dpotrf_: no binding, and a large reduction
    # runs on scipy's LAPACK, held at one thread. Only numpy's libraries are
    # faked, so scipy's lookup, and the scope later tests rely on, stay real
    class LP64:
        dpotrf_ = dsygst_ = dsytrd_ = dtrtri_ = dsyrk_ = object()

    _blas.scipy_openblas.cache_clear()
    threads = _blas.scipy_openblas()
    vendored = _blas._vendored
    monkeypatch.setattr(_blas, "_vendored",
                        lambda package: [LP64()] if package is np else vendored(package))
    _blas.numpy_lapack.cache_clear()
    try:
        assert _blas.numpy_lapack() is None
        with reduction_lapack(NUMPY_LAPACK_MIN_N) as lapack:
            assert lapack is _blas.SCIPY_LAPACK and _blas.scipy_one_thread.open == 1
            assert _blas.scipy_openblas() is threads
            assert threads is None or threads[0]() == 1
    finally:
        _blas.numpy_lapack.cache_clear()
        _blas.scipy_openblas.cache_clear()

    def addresses(pair):
        return pair and [ctypes.cast(fn, ctypes.c_void_p).value for fn in pair]
    assert addresses(_blas.scipy_openblas()) == addresses(threads)


def test_eig_dense_without_the_scope_gives_the_same_groups_and_eigenvalues(monkeypatch):
    A, M = make_pencil([1.0, 1.0, 2.0, 3.0, 3.0, 3.0], 300, 5, mass="random")
    scoped = eg.eig_dense(A, M, 8)
    monkeypatch.setattr(_blas.scipy_one_thread, "lookup", lambda: None)
    plain = eg.eig_dense(A, M, 8)
    assert plain.groups == scoped.groups
    np.testing.assert_allclose(plain.lambdas, scoped.lambdas, rtol=1e-13, atol=0)


def test_lookup_finds_the_lapack_numpy_vendors():
    # fails, not skips, where numpy's wheel has an OpenBLAS with an ILP64
    # LAPACK that the lookup misses, so large reductions cannot silently fall
    # back to scipy's
    expected = next((getattr(lib, spelling.format("dsytrd"))
                     for lib in loaded_openblas(np) for spelling in ("scipy_{}_64_", "{}_64_")
                     if all(hasattr(lib, spelling.format(name))
                            for name in _blas.NumpyLapack.ROUTINES)), None)
    found = _blas.numpy_lapack()
    assert (found is None) == (expected is None)
    if found is not None:
        address = ctypes.cast(found._sytrd, ctypes.c_void_p).value
        assert address == ctypes.cast(expected, ctypes.c_void_p).value


def test_large_eig_dense_on_numpy_lapack_matches_the_scipy_fallback(monkeypatch):
    numpy_lapack_or_skip()
    A, M = make_pencil([1.0, 1.0, 2.0, 3.0, 3.0, 3.0], NUMPY_LAPACK_MIN_N, 5, mass="random")
    fast = eg.eig_dense(A, M, 8)
    monkeypatch.setattr(_blas, "numpy_lapack", lambda: None)
    fallback = eg.eig_dense(A, M, 8)
    assert fast._linearization.reduction.lapack.name == "numpy"
    assert fallback._linearization.reduction.lapack.name == "scipy"
    assert fallback.groups == fast.groups == [[0, 1], [2], [3, 4, 5], [6], [7]]
    np.testing.assert_allclose(fallback.lambdas, fast.lambdas, rtol=1e-13, atol=0)


def test_large_reduction_leaves_numpy_threads_alone_and_raises_on_indefinite_m(monkeypatch):
    lapack, get = numpy_lapack_or_skip(), openblas_getter(np)
    n, seen = NUMPY_LAPACK_MIN_N, []
    for name in ("dpotrf", "dsytrd"):
        def wrapped(*args, _call=getattr(lapack, name)):
            seen.append(get())
            return _call(*args)
        monkeypatch.setattr(lapack, name, wrapped)
    A, M = make_pencil([], n, 0, mass="random")
    before = get()
    assert Reduction(A, M).lapack is lapack
    assert seen == [before, before] and get() == before
    with pytest.raises(NotPositiveDefinite, match="dpotrf info 1"):
        Reduction(A, eg.make_dense(-np.eye(n)))
    assert seen == [before] * 3 and get() == before


@pytest.mark.parametrize("n", [2, 3, NB - 1, NB, NB + 1, 2 * NB + 5,
                               400, 2 * NUMPY_LAPACK_MIN_N + 5])
@pytest.mark.parametrize("pencil", ["diagonal", "cond-1e8"])
def test_blocked_maps_match_triangular_solves_and_explicit_q(pencil, n):
    rng = np.random.default_rng(n)
    if pencil == "diagonal":
        A, M = np.diag(rng.uniform(-1.0, 1.0, n)), np.diag(rng.uniform(1.0, 2.0, n))
    else:
        Qm = sampling.random_orthogonal(n, rng)
        M = (Qm * np.logspace(0.0, 8.0, n)) @ Qm.T
        A, M = sampling.random_symmetric(n, rng), 0.5 * (M + M.T)
    red = Reduction(eg.make_dense(A), eg.make_spd(M))
    L, Q, tau = reference_factors(A, M, red.lapack)
    if pencil == "diagonal":
        assert not np.any(tau)
    # forward error bounds of a triangular solve with L and of M's Cholesky
    eps, cond_M = np.finfo(float).eps, np.linalg.cond(M)
    B, W = rng.standard_normal((n, 5)), rng.standard_normal((n, 5))
    for got, ref in [(red.to_tri(B), Q.T @ scipy.linalg.solve_triangular(L, B, lower=True)),
                     (red.from_tri(W), scipy.linalg.solve_triangular(L, Q @ W, lower=True,
                                                                      trans="T"))]:
        assert np.max(np.abs(got - ref)) <= n * eps * np.sqrt(cond_M) * np.max(np.abs(ref))
    # to about 1e-13 for a well-conditioned M; at cond(M) = 1e8 the reference
    # maps miss it by 1e-9 too, as dpotrf's L L^T is M only to eps |M|
    ident = red.to_tri(M @ red.from_tri(W))
    assert np.max(np.abs(ident - W)) <= n * eps * cond_M * np.max(np.abs(W))


@pytest.mark.parametrize("n", [300, 500])
def test_reduction_keeps_one_n_by_n_array(n):
    # n = 300 runs on scipy's LAPACK, n = 500 on numpy's where it binds; L's
    # off-diagonal panels live in the triangle dsytrd leaves unused, so a kept
    # Reduction holds n^2 doubles plus the NB x NB blocks of L^-1 and the T_b
    A, M = make_pencil([], n, 0, mass="random")
    Reduction(A, M)    # library lookups and first-call set-up outside the count
    tracemalloc.start()
    try:
        red = Reduction(A, M)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    on_numpy = n >= NUMPY_LAPACK_MIN_N and _blas.numpy_lapack() is not None
    assert red.lapack.name == ("numpy" if on_numpy else "scipy")
    assert kept <= 8 * (n * n + 3 * NB * n)


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
def test_unprojected_rhs_solves_its_projection(solve):
    # a column inside its group projects to zero, and so solves to zero
    e1 = np.eye(3)[:, 0]
    sol = solve(degen_lin([2.0, 2.0], [[0, 1]]), np.column_stack([e1, np.zeros(3)]))
    np.testing.assert_array_equal(sol.Y, np.zeros((3, 2)))
    # two directions whose group components are as large as the rest
    A, M = make_pencil([2.0, 2.0, 5.0], 12, 3, mass="random")
    eig = eg.eig_dense(A, M, 3)
    lin = eg.linearize(A, M, eig)
    rng = np.random.default_rng(3)
    B = rng.standard_normal((12, 6)) + lin.MX @ rng.standard_normal((3, 6))
    P = project_rhs(lin, B)
    assert np.all(np.linalg.norm(B - P, axis=0) > 0.1 * np.linalg.norm(B, axis=0))
    direct, ref = solve(lin, B), solve(lin, P)
    np.testing.assert_allclose(direct.Y, ref.Y, rtol=0, atol=1e-12 * np.max(np.abs(ref.Y)))
    assert np.all(direct.residuals <= 1e-12 * np.linalg.norm(B, axis=0))


@pytest.mark.parametrize("eps", [1e-5, 1e-8])
@pytest.mark.parametrize("solve", [solve_dense, solve_iterative])
def test_unprojected_rhs_is_solved_to_the_accuracy_of_its_projection(solve, eps):
    # B = M X + eps P, P off each column's group: the group part is 1/eps times
    # what the solve answers for, so a target, MaxIterExceeded test or
    # ClusterSplit gate scaled by the unprojected |b_j| is 1/eps too loose
    A, M = (eg.make_dense(a) for a in sampling.random_spd_pencil(60, np.random.default_rng(0)))
    eig = eg.eig_iterative(A, M, 4, tol=1e-10)
    lin = eg.linearize(A, M, eig)
    B = lin.MX + eps * project_rhs(lin, np.random.default_rng(1).standard_normal((60, 4)))
    direct, ref = solve(lin, B), solve(lin, project_rhs(lin, B))
    err = np.linalg.norm(direct.Y - ref.Y, axis=0) / np.linalg.norm(ref.Y, axis=0)
    assert np.all(err <= 1e-12), err


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
    lin = eg.linearize(A, M, eig)
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
    fs = oracle.full_spectrum(A, M)
    for j in range(3):
        ref = pseudo_inverse_apply(fs, eig.lambdas[j], B[:, j])
        np.testing.assert_allclose(sol.Y[:, j], ref, atol=1e-9)


def test_iterative_maxiter_payload():
    A, M = make_pencil([2, 2, 5], 30, 0, mass="random")
    eig = eg.eig_dense(A, M, 3)
    lin = eg.linearize(A, M, eig)
    B = project_rhs(lin, np.random.default_rng(0).standard_normal((30, 6)))
    B[:, 4] = 0.0
    with pytest.raises(MaxIterExceeded) as exc:
        solve_iterative(lin, B, maxiter=1)
    sol = exc.value.payload
    assert isinstance(sol, eg.SylvesterSolution)
    np.testing.assert_array_equal(sol.iterations, [1, 1, 1, 1, 0, 1])


def bordered_reference(K, Mm, lin, B):
    """Per column, the exact solve of the bordered system
    [[A - lambda_j M, M X_g], [(M X_g)^T, 0]] [y; mu] = [b_j; 0] by spsolve:
    the y with (A - lambda_j M) y - b_j in span(M X_g) and X_g^T M y = 0."""
    eig, n = lin.eig, B.shape[0]
    group = {j: grp for grp in eig.groups for j in grp}
    Y = np.zeros_like(B)
    for c in range(B.shape[1]):
        j = c % eig.k
        MXg = scipy.sparse.csr_matrix(lin.MX[:, group[j]])
        border = scipy.sparse.bmat([[K - eig.lambdas[j] * Mm, MXg], [MXg.T, None]], format="csc")
        rhs = np.concatenate([B[:, c], np.zeros(len(group[j]))])
        Y[:, c] = scipy.sparse.linalg.spsolve(border, rhs)[:n]
    return Y


def assert_matches_bordered(K, Mm, eig, seed):
    A, M = sparse_ops(K, Mm)
    lin = eg.linearize(A, M, eig)
    n = K.shape[0]
    B = project_rhs(lin, np.random.default_rng(seed).standard_normal((n, 2 * eig.k)))
    sol = solve_iterative(lin, B)
    Y_ref = bordered_reference(K, Mm, lin, B)
    err = np.linalg.norm(sol.Y - Y_ref, axis=0) / np.linalg.norm(Y_ref, axis=0)
    assert np.all(err <= 1e-10), err
    return sol


CLUSTERED = [1.0, 1.0, 2.0, 2.0, 2.0, 4.0, *np.linspace(5.0, 6.0, 48),
             9.0, 10.0, 10.0, 10.0, 12.0, 12.0]


@pytest.mark.parametrize("which", ["smallest", "largest"])
@pytest.mark.parametrize("pencil", ["membrane", "identity", "random"])
def test_cg_matches_bordered_reference(pencil, which):
    # the m = 31 membrane (n = 961) and a 60 x 60 pencil with groups at both
    # ends of its spectrum; dense primals, two directions stacked per call
    if pencil == "membrane":
        K, Mm = membrane(31)
    else:
        A, M = make_pencil(CLUSTERED, 60, 11, mass=pencil)
        K, Mm = scipy.sparse.csr_matrix(A.entries), scipy.sparse.csr_matrix(M.entries)
    eig = eg.eig_dense(eg.make_dense(K.toarray()), eg.make_spd(Mm.toarray()), 6, which=which)
    assert max(len(g) for g in eig.groups) >= 2
    assert_matches_bordered(K, Mm, eig, 3)


@pytest.mark.parametrize("which", ["smallest", "largest"])
def test_iterative_primal_reaches_bordered_reference(monkeypatch, which):
    # a tol-1e-9 LOBPCG primal: deflation alone takes its pairs as exact and
    # misses the reference by 3e-10 ("smallest") and 1e-8 ("largest"); folding
    # the primal's residual into the right-hand side meets it in one CG pass
    K, Mm = membrane(31)
    eig = eg.eig_iterative(*sparse_ops(K, Mm), 6, which=which, tol=1e-9)
    sizes = {"smallest": [1, 2, 1, 2], "largest": [2, 1, 2, 1]}[which]
    assert [len(g) for g in eig.groups] == sizes
    passes, cg = [], sylvester._cg

    def recording(*args):
        passes.append(cg(*args))
        return passes[-1]

    monkeypatch.setattr(sylvester, "_cg", recording)
    sol = assert_matches_bordered(K, Mm, eig, 5)
    assert len(passes) == 1
    np.testing.assert_array_equal(sol.iterations, passes[0][1])


def test_iterative_maxiter_bounds_cg_steps():
    K, Mm = membrane(15)
    A, M = sparse_ops(K, Mm)
    eig = eg.eig_iterative(A, M, 4, tol=1e-9)
    lin = eg.linearize(A, M, eig)
    B = project_rhs(lin, np.random.default_rng(2).standard_normal((K.shape[0], 4)))
    full = solve_iterative(lin, B).iterations
    # one step short of the target leaves the column well inside the
    # MaxIterExceeded bound
    maxiter = int(full.max()) - 1
    sol = solve_iterative(lin, B, maxiter=maxiter)
    np.testing.assert_array_equal(sol.iterations, np.minimum(full, maxiter))


def test_skipped_lower_eigenvalue_raises_cluster_split():
    # the pairs of 2 and 3 without the pair of 1: the deflated operator is
    # negative along e_1, and CG meets non-positive curvature
    n = 12
    A, M = eg.make_dense(np.diag(np.arange(1.0, n + 1))), eg.identity_operator(n)
    eig = eg.EigenResult(X=np.eye(n)[:, 1:3], lambdas=np.array([2.0, 3.0]), groups=[[0], [1]])
    lin = eg.linearize(A, M, eig)
    B = project_rhs(lin, np.random.default_rng(0).standard_normal((n, 2)))
    with pytest.raises(ClusterSplit) as excinfo:
        solve_iterative(lin, B)
    assert 0 < excinfo.value.defect < np.inf


def test_lockstep_cg_zero_columns():
    A, M = make_pencil([2.0, 2.0, 5.0], 20, 1, mass="random")
    eig = eg.eig_dense(A, M, 3)
    lin = eg.linearize(A, M, eig)
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
    lin = eg.linearize(A, M, eig)
    B = project_rhs(lin, np.random.default_rng(0).standard_normal((40, 3)))
    with pytest.raises(ValueError, match="maxiter"):
        solve_iterative(lin, B, maxiter=maxiter)


def test_block_width_must_be_a_multiple_of_k():
    # n = 3, k = 2: a width off the multiple, a 1-D block, too few rows and
    # no columns at all fail alike
    lin = degen_lin([2.0, 2.0], [[0, 1]])
    for solve in (project_rhs, solve_dense, solve_iterative):
        for B in (np.ones((3, 3)), np.ones(3), np.ones((2, 2)), np.ones((3, 0))):
            with pytest.raises(DimensionMismatch, match="multiple of k"):
                solve(lin, B)
