import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigengrad as eg
from eigengrad import sampling
from eigengrad.errors import (DimensionMismatch, EigengradError, NonFiniteError, NonSquareError,
                              NotAnOperator)

from conftest import membrane, sparse_ops


def test_make_dense_diagonal():
    op = eg.make_dense([[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(op.apply_batch([[1.0], [0.0]]), [[1.0], [0.0]])


def test_make_dense_permutation():
    op = eg.make_dense([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(op.apply_batch([[1.0], [0.0]]), [[0.0], [1.0]])


def test_make_dense_symmetrizes():
    op = eg.make_dense([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_array_equal(op.entries, [[1.0, 1.0], [1.0, 1.0]])


def test_make_dense_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        eg.make_dense(np.zeros((2, 3)))


def test_make_dense_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        eg.make_dense([[1.0, np.nan], [np.nan, 1.0]])


def test_make_dense_idempotent_rewrap():
    op = eg.make_dense([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_array_equal(eg.make_dense(op.entries).entries, op.entries)


def test_check_symmetry_dense_true():
    assert eg.check_symmetry(eg.make_dense(np.diag([1.0, 2.0])))


def test_check_symmetry_asymmetric_raw_map():
    B = np.array([[1.0, 1.0], [0.0, 1.0]])
    op = eg.SymmetricOperator(2, lambda v: B @ v)
    assert not eg.check_symmetry(op)


def test_check_symmetry_identity_closure():
    op = eg.SymmetricOperator(4, lambda v: v)
    assert eg.check_symmetry(op)


def test_apply_batch_matches_columnwise(rng):
    B = rng.standard_normal((5, 5))
    S = B + B.T
    # closure without a batch rule: the default is columnwise, bitwise equal
    op = eg.SymmetricOperator(5, lambda v: S @ v)
    V = rng.standard_normal((5, 3))
    out = op.apply_batch(V)
    for j in range(3):
        np.testing.assert_array_equal(out[:, j], op.apply_batch(V[:, j:j + 1])[:, 0])
    # dense-backed batch goes through GEMM; equal up to roundoff
    np.testing.assert_allclose(eg.make_dense(S).apply_batch(V), out,
                               atol=1e-12)


def test_apply_linearity(rng):
    B = rng.standard_normal((6, 6))
    op = eg.make_dense(B + B.T)
    u, v = rng.standard_normal((6, 1)), rng.standard_normal((6, 1))
    np.testing.assert_allclose(op.apply_batch(2.0 * u - 3.0 * v),
                               2.0 * op.apply_batch(u) - 3.0 * op.apply_batch(v),
                               atol=1e-12)


def test_spd_wrapper_delegates(rng):
    M = eg.make_spd(np.diag([1.0, 4.0]))
    np.testing.assert_allclose(M.apply_batch([[1.0], [1.0]]), [[1.0], [4.0]])
    assert eg.linop.spot_check_spd(M)
    assert not eg.linop.spot_check_spd(eg.make_dense(-np.eye(3)))


def test_apply_batch_takes_blocks_only():
    ops = (eg.make_dense(np.eye(3)), eg.SymmetricOperator(3, lambda v: v),
           eg.SymmetricOperator(3, None, lambda V: V))
    for op in ops:
        with pytest.raises(DimensionMismatch, match="3 rows"):
            op.apply_batch(np.ones(3))
        with pytest.raises(DimensionMismatch, match="3 rows"):
            op.apply_batch(np.ones((2, 1)))
        np.testing.assert_array_equal(op.apply_batch(np.ones((3, 2))), np.ones((3, 2)))


def test_transposed_product_is_a_dimension_mismatch():
    D = np.diag([1.0, 2.0, 3.0, 4.0])
    op = eg.SymmetricOperator(4, None, lambda V: (D @ V).T)
    with pytest.raises(DimensionMismatch, match=r"dim 4 returned shape \(3, 4\)") as exc:
        op.apply_batch(np.ones((4, 3)))
    assert isinstance(exc.value, EigengradError) and isinstance(exc.value, ValueError)
    # a square block's transpose has the right shape: only the map can tell
    np.testing.assert_array_equal(op.apply_batch(np.eye(4)), D)


@pytest.mark.parametrize("short, got", [
    (eg.SymmetricOperator(6, None, lambda V: V[:-1]), r"\(5, 2\)"),
    (eg.SymmetricOperator(6, lambda v: v[:-1]), r"\(5,\)"),
], ids=["block", "vector"])
def test_wrong_size_product_is_a_dimension_mismatch_inside_jvp(short, got):
    A, M = (eg.make_dense(a) for a in sampling.pencil_from_spectrum([], 6, np.random.default_rng(0)))
    eig = eg.eig_dense(A, M, 2)
    with pytest.raises(DimensionMismatch, match=rf"dim 6 returned shape {got}"):
        eg.jvp(A, M, eig, eg.TangentInput(Aprime=short, Mprime=M))


@pytest.mark.parametrize("shape", [(5,), (5, 1), (1, 5)])
def test_vector_closure_takes_a_flat_row_or_column_product(rng, shape):
    V = rng.standard_normal((5, 3))
    op = eg.SymmetricOperator(5, lambda v: (2.0 * v).reshape(shape))
    np.testing.assert_array_equal(op.apply_batch(V), 2.0 * V)


def test_vector_closure_block_equals_columnwise_bitwise(rng):
    S = rng.standard_normal((7, 7))
    S = S + S.T
    V = rng.standard_normal((7, 4))
    op = eg.SymmetricOperator(7, lambda v: S @ v)
    ref = np.column_stack([S @ V[:, j] for j in range(4)])
    np.testing.assert_array_equal(op.apply_batch(V), ref)


def _counting(mat, calls):
    def apply(V):
        calls.append(V.shape)
        return mat @ V
    return eg.SymmetricOperator(mat.shape[0], apply, apply)


def test_spot_checks_apply_one_block_per_probe_set():
    cases = ((np.diag([1.0, 2.0]), True), (np.array([[1.0, 1.0], [0.0, 1.0]]), False))
    for mat, symmetric in cases:
        calls = []
        assert eg.check_symmetry(_counting(mat, calls)) == symmetric
        assert calls == [(2, 10), (2, 10)]
    # five orthonormal probes V, then the part of M V off them; at n <= 5 the
    # probes span the whole space and the second block is empty
    d = np.arange(1.0, 13.0)
    cases = ((np.diag(d), True, [(12, 5), (12, 5)]), (-np.diag(d), False, [(12, 5), (12, 5)]),
             (np.diag([1.0, 4.0]), True, [(2, 2)]), (-np.eye(3), False, [(3, 3)]))
    for mat, spd, blocks in cases:
        calls = []
        assert eg.linop.spot_check_spd(_counting(mat, calls)) == spd
        assert calls == blocks


def test_operator_dim_must_be_positive():
    with pytest.raises(ValueError, match="dim must be positive, got 0"):
        eg.SymmetricOperator(0, lambda v: v)


def _nan_from(mat, N):
    """A block closure over ``mat`` whose N-th product and later hold a NaN,
    and the list its calls are counted in."""
    calls = []

    def apply(V):
        calls.append(V.shape)
        out = mat @ V
        if len(calls) >= N:
            out[0, 0] = np.nan
        return out
    return eg.SymmetricOperator(mat.shape[0], None, apply), calls


@pytest.mark.parametrize("route, N", [("eig_iterative", 4), ("jvp", 3), ("vjp", 3),
                                      ("check_symmetry", 2)])
def test_a_non_finite_product_raises_where_it_is_made(route, N):
    # past the first products: unchecked, these surfaced as numpy's LinAlgError
    # (eig_iterative), a ClusterSplit after 1,202 CG products (jvp, vjp) and True
    A_arr, M_arr = sampling.random_spd_pencil(60, np.random.default_rng(0))
    A, M = eg.make_dense(A_arr), eg.make_spd(M_arr)
    eig = eg.eig_iterative(A, M, 4)
    gen = np.random.default_rng(1)
    directions = {"jvp": sampling.valid_tangent(eig, M, gen),
                  "vjp": sampling.valid_cotangent(eig, M, gen)}
    bad, calls = _nan_from(A_arr, N)
    with pytest.raises(NonFiniteError, match="dim 60 returned a non-finite product"):
        if route == "eig_iterative":
            eg.eig_iterative(bad, M, 4)
        elif route == "check_symmetry":
            eg.check_symmetry(bad)
        else:
            getattr(eg, route)(bad, M, eig, directions[route], solver="iterative")
    assert len(calls) == N


@pytest.mark.parametrize("call, name", [
    ("eig_dense", "A"), ("eig_dense", "M"), ("eig_iterative", "A"), ("eig_iterative", "M"),
    ("jvp", "A"), ("jvp", "M"), ("vjp", "A"), ("vjp", "M"),
    ("jvp", "Aprime"), ("jvp", "Mprime")])
def test_an_array_where_an_operator_is_expected_is_a_typed_error(call, name):
    A_arr, M_arr = sampling.pencil_from_spectrum([2.0, 2.0, 5.0], 16, np.random.default_rng(0))
    A, M = eg.make_dense(A_arr), eg.make_spd(M_arr)
    eig = eg.eig_dense(A, M, 3)
    rng = np.random.default_rng(1)
    t, c = sampling.valid_tangent(eig, M, rng), sampling.valid_cotangent(eig, M, rng)
    ops = {"A": A, "M": M}
    if name in ops:
        ops[name] = eg.as_dense_array(ops[name])
    else:
        setattr(t, name, eg.as_dense_array(getattr(t, name)))
    run = {"eig_dense": lambda: eg.eig_dense(ops["A"], ops["M"], 3),
           "eig_iterative": lambda: eg.eig_iterative(ops["A"], ops["M"], 3),
           "jvp": lambda: eg.jvp(ops["A"], ops["M"], eig, t),
           "vjp": lambda: eg.vjp(ops["A"], ops["M"], eig, c)}[call]
    with pytest.raises(NotAnOperator, match=rf"^{name} must be a SymmetricOperator, got ndarray"
                       ) as exc:
        run()
    assert isinstance(exc.value, TypeError) and isinstance(exc.value, EigengradError)
    assert "eg.make_dense" in str(exc.value) and "eg.make_spd" in str(exc.value)


def test_read_rows_rejects_too_few_rows(tmp_path):
    path = tmp_path / "short.mat"
    path.write_text("symmat 3\n1 0 0\n0 1 0\n")
    with pytest.raises(ValueError, match=r"expected 3 rows of 3 entries, got shape \(2, 3\)"):
        eg.linop.read_rows(path)


def test_symmat_roundtrip(tmp_path, rng):
    B = rng.standard_normal((4, 4))
    A = B + B.T
    path = tmp_path / "A.mat"
    eg.write_symmat(path, A)
    back = eg.read_symmat(path)
    np.testing.assert_array_equal(back.entries, A)


def test_symmat_parser_symmetrizes(tmp_path):
    path = tmp_path / "B.mat"
    path.write_text("symmat 2\n1 2\n0 1\n")
    np.testing.assert_array_equal(eg.read_symmat(path).entries,
                                  [[1.0, 1.0], [1.0, 1.0]])


def test_symmat_bad_header(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("matrix 2\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        eg.read_symmat(path)


@pytest.fixture
def low_rank():
    gen = np.random.default_rng(5)
    U, W = gen.standard_normal((7, 2)), gen.standard_normal((7, 2))
    return eg.LowRank(U, W), U @ W.T


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


def test_low_rank_behaves_as_its_dense_matrix(low_rank):
    L, D = low_rank
    P = np.random.default_rng(6).standard_normal((7, 7))
    V = np.random.default_rng(7).standard_normal((7, 3))
    np.testing.assert_array_equal(np.asarray(L), D)
    np.testing.assert_array_equal(L.dense(), D)
    assert L.shape == (7, 7)
    close(np.vdot(L, P), np.vdot(D, P))
    close(np.diagonal(L), np.diagonal(D))
    close(L @ V, D @ V)
    close(L @ V[:, 0], D @ V[:, 0])
    close(np.asarray(L.T), D.T)
    for scaled in (2.5 * L, L * 2.5, L * np.float64(2.5)):
        assert isinstance(scaled, eg.LowRank)
        close(np.asarray(scaled), 2.5 * D)
    sym = 0.5 * (L + L.T)
    assert isinstance(sym, eg.LowRank) and sym.U.shape == (7, 4)
    close(np.asarray(sym), 0.5 * (D + D.T))
    close(np.asarray(L - 3.0 * L.T), D - 3.0 * D.T)
    close(L - P, D - P)     # mixed with an array: dense, through __array__
    close(L + P, D + P)


def test_low_rank_in_place_scaling_leaves_the_factors(low_rank):
    L, D = low_rank
    U, W = L.U.copy(), L.W.copy()
    scaled = L
    scaled *= 2.0
    close(np.asarray(scaled), 2.0 * D)
    neg = -L
    assert isinstance(neg, eg.LowRank) and neg.W is L.W
    np.testing.assert_array_equal(np.asarray(neg), -D)
    np.testing.assert_array_equal(L.U, U)
    np.testing.assert_array_equal(L.W, W)


@pytest.mark.parametrize("kind", ["array", "dense", "closure"])
def test_low_rank_pairs_with_an_operator_in_one_block_apply(low_rank, kind):
    L, D = low_rank
    S = sampling.random_symmetric(7, np.random.default_rng(8))
    blocks = []

    def apply(V):
        blocks.append(V.shape)
        return S @ V

    P = {"array": S, "dense": eg.make_dense(S),
         "closure": eg.SymmetricOperator(7, None, apply)}[kind]
    want = np.vdot(D, S)
    assert abs(L.pair(P) - want) <= 1e-12 * abs(want)
    assert blocks == ([(7, 2)] if kind == "closure" else [])


def test_low_rank_shape_errors(low_rank):
    L, _ = low_rank
    with pytest.raises(DimensionMismatch):
        eg.LowRank(np.ones((7, 2)), np.ones((7, 3)))
    with pytest.raises(DimensionMismatch):
        L + eg.LowRank(np.ones((6, 2)), np.ones((6, 2)))
    with pytest.raises(ValueError):
        L.__array__(copy=False)
    # a pairing of another shape is typed too, whatever the other operand is
    L6, P6 = eg.LowRank(np.ones((6, 2)), np.ones((6, 2))), np.ones((6, 6))
    for other in (L6, P6, eg.make_dense(P6)):
        with pytest.raises(DimensionMismatch, match=r"shape \(7, 7\) with shape \(6, 6\)"):
            L.pair(other)
    for other in (L6, P6):
        with pytest.raises(DimensionMismatch):
            np.vdot(L, other)


def test_low_rank_divided_by_a_scalar_stays_factored(low_rank):
    L, D = low_rank
    for s in (4.0, np.float64(4.0), np.array(4.0)):
        for out in (L / s, np.divide(L, s)):
            assert isinstance(out, eg.LowRank) and out.W is L.W
            np.testing.assert_array_equal(out.U, L.U / s)
            close(np.asarray(out), D / 4.0)
    close(L / np.arange(1.0, 8.0), D / np.arange(1.0, 8.0))   # not a scalar: dense


@st.composite
def factored(draw):
    """(L, L2, D, D2): two n x n LowRanks and their dense arrays; n in 1..40,
    k in 1..5, each either rank k or a rank-2k sum of two LowRanks."""
    n, k, seed = draw(st.integers(1, 40)), draw(st.integers(1, 5)), draw(st.integers(0, 2**16))
    gen = np.random.default_rng(seed)

    def one(summed):
        Ls = [eg.LowRank(gen.standard_normal((n, k)), gen.standard_normal((n, k)))
              for _ in range(1 + summed)]
        return Ls[0] + Ls[1] if summed else Ls[0]

    L, L2 = one(draw(st.booleans())), one(draw(st.booleans()))
    return L, L2, np.asarray(L), np.asarray(L2)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(factored(), st.sampled_from([2.5, np.float64(-1.5), np.array(0.75)]))
def test_numpy_calls_on_a_low_rank_stay_factored(case, s):
    # each handled call against the same call on the dense array, to 1e-12 of the
    # magnitude |U| |W| |other| bounding its terms, and of the documented type
    L, L2, D, D2 = case
    n = D.shape[0]
    gen = np.random.default_rng(n)
    P, V = gen.standard_normal((n, n)), gen.standard_normal((n, 3))
    mag = np.linalg.norm(L.U) * np.linalg.norm(L.W) * max(
        np.linalg.norm(P), np.linalg.norm(V), np.linalg.norm(D2), 1.0)
    calls = [
        (np.ndarray, np.diagonal, (L,), (D,)),
        (float, np.trace, (L,), (D,)),
        (float, np.vdot, (L, P), (D, P)),
        (float, np.vdot, (P, L), (P, D)),
        (float, np.vdot, (L, L2), (D, D2)),
        (float, L.pair, (L2,), (D2,)),
        (eg.LowRank, np.transpose, (L,), (D,)),
        (np.ndarray, np.matmul, (L, V), (D, V)),
        (np.ndarray, np.matmul, (V.T, L), (V.T, D)),
        (np.ndarray, np.dot, (L, V[:, 0]), (D, V[:, 0])),
        (np.ndarray, np.dot, (V.T, L), (V.T, D)),
        (np.ndarray, lambda a, b: a @ b, (V.T, L), (V.T, D)),
        (eg.LowRank, lambda a, b: a @ b, (L, L2), (D, D2)),
        (eg.LowRank, np.matmul, (L, L2), (D, D2)),
        (eg.LowRank, np.dot, (L, L2), (D, D2)),
        (eg.LowRank, np.multiply, (s, L), (s, D)),
        (eg.LowRank, np.multiply, (L, s), (D, s)),
        (eg.LowRank, lambda a, b: a * b, (s, L), (s, D)),
        (eg.LowRank, np.negative, (L,), (D,)),
        (eg.LowRank, lambda a: -a, (L,), (D,)),
    ]
    for kind, func, args, dense_args in calls:
        got, want = func(*args), func(*dense_args)
        assert isinstance(got, kind), (func, type(got))
        np.testing.assert_allclose(np.asarray(got), want, rtol=1e-12, atol=1e-12 * mag)


def test_unhandled_numpy_calls_get_the_dense_array(low_rank):
    L, D = low_rank
    P = np.random.default_rng(9).standard_normal((7, 7))
    calls = [(np.linalg.norm, (L,), (D,)), (np.sum, (L,), (D,)),
             (np.concatenate, ([L, P],), ([D, P],)), (np.allclose, (L, P), (D, P)),
             (lambda a, b: b + a, (L, P), (D, P)), (lambda a, b: b * a, (L, P), (D, P)),
             (np.shape, (L,), (D,))]
    for func, args, dense_args in calls:
        got, want = func(*args), func(*dense_args)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)


def test_low_rank_defers_to_other_array_types(low_rank):
    L, _ = low_rank

    class Duck:
        def __array_function__(self, func, types, args, kwargs):
            return NotImplemented

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            return NotImplemented

    duck = Duck()
    assert L.__array_function__(np.diagonal, (type(L), Duck), (L,), {}) is NotImplemented
    assert L.__array_ufunc__(np.multiply, "__call__", 2.0, duck) is NotImplemented
    with pytest.raises(TypeError):
        np.multiply(L, duck)


def test_numpy_calls_on_vjp_adjoints_allocate_no_n_by_n_array():
    # one n x n array would be n^2 8 bytes; each call stays under an eighth of it
    K, Mm = membrane(40)
    A, M = sparse_ops(K, Mm)
    n = K.shape[0]
    eig = eg.eig_iterative(A, M, 6)
    out = eg.vjp(A, M, eig, sampling.valid_cotangent(eig, M, np.random.default_rng(4)),
                 solver="iterative")
    A_bar, M_bar = out.A_bar, out.M_bar
    P = np.random.default_rng(5).standard_normal((n, n))
    calls = {"diagonal": lambda: np.diagonal(A_bar), "trace": lambda: np.trace(A_bar),
             "vdot dense": lambda: np.vdot(A_bar, P),
             "vdot adjoints": lambda: np.vdot(A_bar, M_bar), "pair": lambda: A_bar.pair(M_bar),
             "product": lambda: A_bar @ M_bar, "numpy scalar": lambda: np.float64(2.0) * A_bar,
             "negation": lambda: -A_bar}
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak < n * n * 8 / 8 for peak in peaks.values()), peaks
