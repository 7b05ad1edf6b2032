import json

import numpy as np
import pytest
import scipy.linalg

import eigengrad as eg
from eigengrad import cli, oracle
from eigengrad.cli import main, parse_degeneracy
from eigengrad.errors import InvalidSpec


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def diag_pencil(tmp_path):
    eg.write_symmat(tmp_path / "A.mat", np.diag([1.0, 2.0, 3.0]))
    eg.write_symmat(tmp_path / "M.mat", np.eye(3))
    return tmp_path / "A.mat", tmp_path / "M.mat"


def test_parse_degeneracy():
    assert parse_degeneracy("2x2,5x1") == [(2.0, 2), (5.0, 1)]
    assert parse_degeneracy("") == []
    with pytest.raises(InvalidSpec):
        parse_degeneracy("2x2,bogus")
    with pytest.raises(InvalidSpec):
        parse_degeneracy("2x0")
    for text in ("nanx2", "infx1"):
        with pytest.raises(InvalidSpec):
            parse_degeneracy(text)


@pytest.mark.parametrize("mass", ["identity", "random"])
def test_generate_spectrum_by_construction(tmp_path, monkeypatch, mass):
    def no_eigh(*args, **kwargs):
        pytest.fail("the pencil is built in closed form, without np.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert run(["generate", "--n", 3, "--degeneracy", "2x2,5x1", "--mass", mass,
                "--seed", 7, "--out", tmp_path]) == 0
    monkeypatch.undo()
    A = eg.as_dense_array(eg.read_symmat(tmp_path / "A.mat"))
    M = eg.as_dense_array(eg.read_symmat(tmp_path / "M.mat"))
    if mass == "identity":
        np.testing.assert_array_equal(M, np.eye(3))
    np.testing.assert_allclose(scipy.linalg.eigh(A, M, eigvals_only=True),
                               [2.0, 2.0, 5.0], atol=1e-12)


def test_generate_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run(["generate", "--n", 5, "--degeneracy", "1x3",
                    "--mass", "random", "--seed", 11, "--out", out]) == 0
    for name in ("A.mat", "M.mat"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_generate_overfull_multiplicities_exit_2(tmp_path):
    assert run(["generate", "--n", 3, "--degeneracy", "2x4",
                "--out", tmp_path]) == 2


def test_bad_degeneracy_string_exit_2(tmp_path):
    assert run(["generate", "--n", 3, "--degeneracy", "nope",
                "--out", tmp_path]) == 2


def test_missing_input_exit_2(tmp_path):
    assert run(["verify", "--a", tmp_path / "no.mat",
                "--m", tmp_path / "no.mat", "--out", tmp_path]) == 2


def test_non_finite_input_exit_2(tmp_path, diag_pencil):
    a, m = diag_pencil
    a.write_text("symmat 3\n1 0 0\n0 nan 0\n0 0 3\n")
    for command in ("jvp", "verify"):
        assert run([command, "--a", a, "--m", m, "--out", tmp_path]) == 2


def test_jvp_subcommand_writes_json(tmp_path, diag_pencil):
    a, m = diag_pencil
    assert run(["jvp", "--a", a, "--m", m, "--k", 2, "--out", tmp_path]) == 0
    payload = json.loads((tmp_path / "jvp.json").read_text())
    assert set(payload) == {"lambdas", "lambda_prime", "X_prime",
                            "validity_defect"}
    assert payload["validity_defect"] <= 1e-10
    np.testing.assert_allclose(payload["lambdas"], [1.0, 2.0], atol=1e-12)


def test_vjp_subcommand_writes_json(tmp_path, diag_pencil):
    a, m = diag_pencil
    assert run(["vjp", "--a", a, "--m", m, "--k", 2, "--out", tmp_path]) == 0
    payload = json.loads((tmp_path / "vjp.json").read_text())
    assert set(payload) == {"lambdas", "A_bar", "M_bar", "validity_defect"}
    for key in ("A_bar", "M_bar"):    # dense n x n lists of rank-k adjoints
        bar = np.asarray(payload[key])
        assert bar.shape == (3, 3) and np.all(np.isfinite(bar))
        assert np.linalg.matrix_rank(bar) <= 2


def test_verify_input_pencil_all_pass(tmp_path, diag_pencil):
    a, m = diag_pencil
    assert run(["verify", "--a", a, "--m", m, "--k", 2,
                "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"schema", "environment", "checks", "all_passed",
                           "timing"}
    assert report["schema"] == 1
    assert report["all_passed"] is True
    assert report["environment"] == {"seed": 0, "k": 2, "solver": "dense"}
    for rec in report["checks"]:
        assert rec["status"] == ("pass" if rec["measured"] <= rec["tolerance"]
                                 else "fail")


def test_verify_iterative_solver_matches_dense_pattern(tmp_path):
    run(["generate", "--n", 30, "--mass", "random", "--seed", 3,
         "--out", tmp_path])
    codes, patterns = [], []
    for solver in ("dense", "iterative"):
        out = tmp_path / solver
        codes.append(run(["verify", "--a", tmp_path / "A.mat",
                          "--m", tmp_path / "M.mat", "--k", 3,
                          "--solver", solver, "--out", out]))
        report = json.loads((out / "report.json").read_text())
        patterns.append({r["name"].split("/")[-1]: r["status"]
                         for r in report["checks"]
                         if "iter_vs_dense" not in r["name"]})
    assert codes == [0, 0]
    assert patterns[0] == patterns[1]


def test_verify_invalid_tangent_fails_and_exits_nonzero(tmp_path):
    run(["generate", "--n", 4, "--degeneracy", "2x2,5x1", "--seed", 5,
         "--out", tmp_path])
    code = run(["verify", "--a", tmp_path / "A.mat", "--m", tmp_path / "M.mat",
                "--k", 3, "--inject-invalid-tangent", "--out", tmp_path])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is False
    # the stacked jvp raises before anything past the defect is recorded
    assert [r["name"] for r in report["checks"]] == [
        "input/symmetry_A", "input/symmetry_M", "input/eig_residual",
        "input/m_orthonormality", "input/forward_validity_defect",
        "input/ValidityViolated"]
    by_name = {r["name"]: r for r in report["checks"]}
    rec = by_name["input/forward_validity_defect"]
    assert rec["status"] == "fail" and rec["measured"] >= 0.5


def test_verify_reports_reproducible(tmp_path, diag_pencil):
    a, m = diag_pencil
    reports = []
    for out in (tmp_path / "r1", tmp_path / "r2"):
        run(["verify", "--a", a, "--m", m, "--k", 2, "--seed", 9,
             "--out", out])
        rep = json.loads((out / "report.json").read_text())
        del rep["timing"]  # wall-clock is the only non-deterministic field
        reports.append(rep)
    assert reports[0] == reports[1]


def test_default_suite_passes(tmp_path):
    assert run(["verify", "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    labels = {r["name"].split("/")[0] for r in report["checks"]}
    assert {"diag123", "degen225", "degen1114", "random20", "iter50"} <= labels
    # each instance fixes its own k and solver
    assert report["environment"] == {"seed": 0, "k": None, "solver": None}


def test_default_suite_one_stacked_call_per_mode(tmp_path, monkeypatch):
    # per instance: one primal, and one jvp and one vjp on t (c) plus the 20
    # pairing directions; iter50's eigenvalue reference is the oracle's spectrum
    calls = {"jvp": [], "vjp": [], "eig_dense": []}

    def counting(name):
        inner = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    assert run(["verify", "--out", tmp_path]) == 0
    for mode in ("jvp", "vjp"):
        directions = [args[3] for args in calls[mode]]
        assert [len(d) if isinstance(d, list) else 1 for d in directions] == [21] * 5
    assert [args[0].dim for args in calls["eig_dense"]] == [3, 3, 6, 20]


def test_default_suite_extrapolates_two_fd_steps(tmp_path, monkeypatch):
    # per instance, the finite-difference reference combines central
    # differences at --fd-step and at twice it
    steps = []
    inner = oracle.finite_difference_jvp

    def counting(*args, **kwargs):
        steps.append(kwargs["step"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(oracle, "finite_difference_jvp", counting)
    assert run(["verify", "--fd-step", 2e-5, "--out", tmp_path]) == 0
    assert steps == [2e-5, 4e-5] * 5


@pytest.mark.parametrize("seed", [2, 5, 21, 33])
def test_default_suite_passes_on_iter50_gap_seeds(tmp_path, seed):
    # iter50's primal runs at tol 1e-9; a block of k columns left its
    # eigenvector error along lambda_{k+1} above jvp_vs_series' 1e-8 on
    # seeds 2 and 5; on 21 and 33 a plain central difference's O(h^2)
    # truncation reached jvp_eigenvalues_vs_fd's 1e-7
    assert run(["verify", "--seed", seed, "--out", tmp_path]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["all_passed"] is True


def test_typed_error_exits_2(tmp_path):
    # k = 1 retrieves one eigenvector of the double eigenvalue 2: ClusterSplit
    run(["generate", "--n", 6, "--degeneracy", "2x2,5x1", "--out", tmp_path])
    assert run(["jvp", "--a", tmp_path / "A.mat", "--m", tmp_path / "M.mat",
                "--k", 1, "--out", tmp_path]) == 2


def test_verify_honours_which(tmp_path):
    # the double eigenvalue 1 is the smallest; k = 1 would cut it, the largest is simple
    run(["generate", "--n", 6, "--degeneracy", "1x2", "--out", tmp_path])
    for solver in ("dense", "iterative"):
        assert run(["verify", "--a", tmp_path / "A.mat", "--m", tmp_path / "M.mat",
                    "--k", 1, "--which", "largest", "--solver", solver,
                    "--out", tmp_path]) == 0


@pytest.mark.parametrize("args", [["generate", "--k", 2],
                                  ["jvp", "--fd-step", 1e-5],
                                  ["verify", "--n", 5],
                                  ["jvp", "--tol-solv", 1e-10],
                                  ["verify", "--tol-cond", 1e-7],
                                  # read only with an --a/--m pencil, and only as a pair
                                  ["verify", "--a", "A.mat"],
                                  ["verify", "--m", "M.mat"],
                                  ["verify", "--k", 0],
                                  ["verify", "--solver", "iterative"],
                                  # a step or tolerance must be finite and above 0
                                  ["verify", "--fd-step", 0],
                                  ["verify", "--fd-step", "nan"],
                                  ["verify", "--tol-eig", "inf"],
                                  ["jvp", "--tol-eig", "nan", "--solver", "iterative"],
                                  ["vjp", "--tol-eig", 0]])
def test_option_the_subcommand_does_not_read_exit_2(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # where a run that ignored the option would write
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2


def test_verify_non_symmetric_input_fails(tmp_path):
    rng = np.random.default_rng(0)
    eg.write_symmat(tmp_path / "A.mat", rng.standard_normal((6, 6)))
    eg.write_symmat(tmp_path / "M.mat", np.eye(6))
    assert run(["verify", "--a", tmp_path / "A.mat", "--m", tmp_path / "M.mat",
                "--out", tmp_path]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    by_name = {r["name"]: r["status"] for r in report["checks"]}
    assert by_name["input/symmetry_A"] == "fail"
    assert by_name["input/symmetry_M"] == "pass"


@pytest.mark.parametrize("command, fields", [("jvp", ["lambda_prime", "X_prime"]),
                                             ("vjp", ["A_bar", "M_bar"])])
def test_derivative_subcommand_iterative_solver_matches_dense(tmp_path, monkeypatch,
                                                              command, fields):
    # n = 30 > max(4 k, 12): the primal runs LOBPCG, not eig_iterative's dense fallback
    run(["generate", "--n", 30, "--mass", "random", "--seed", 3, "--out", tmp_path])
    primals = []
    inner = cli.eig_iterative

    def counting(*args, **kwargs):
        primals.append(kwargs["tol"])
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, "eig_iterative", counting)
    payloads = []
    for solver in ("dense", "iterative"):
        out = tmp_path / solver
        assert run([command, "--a", tmp_path / "A.mat", "--m", tmp_path / "M.mat", "--k", 3,
                    "--solver", solver, "--tol-eig", 1e-10, "--out", out]) == 0
        payloads.append(json.loads((out / f"{command}.json").read_text()))
    assert primals == [1e-10]
    dense, it = payloads
    np.testing.assert_allclose(it["lambdas"], dense["lambdas"], rtol=1e-9)
    for key in fields:
        got, want = np.asarray(it[key]), np.asarray(dense[key])
        np.testing.assert_allclose(got, want, atol=1e-6 * np.max(np.abs(want)))
