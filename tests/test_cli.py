import json

import numpy as np
import pytest

import eigengrad as eg
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


def test_generate_spectrum_by_construction(tmp_path):
    assert run(["generate", "--n", 3, "--degeneracy", "2x2,5x1",
                "--seed", 7, "--out", tmp_path]) == 0
    A = eg.as_dense_array(eg.read_symmat(tmp_path / "A.mat"))
    M = eg.as_dense_array(eg.read_symmat(tmp_path / "M.mat"))
    np.testing.assert_array_equal(M, np.eye(3))
    np.testing.assert_allclose(np.linalg.eigvalsh(A), [2.0, 2.0, 5.0],
                               atol=1e-12)


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
    Ab = np.asarray(payload["A_bar"])
    assert Ab.shape == (3, 3) and np.all(np.isfinite(Ab))


def test_verify_input_pencil_all_pass(tmp_path, diag_pencil):
    a, m = diag_pencil
    assert run(["verify", "--a", a, "--m", m, "--k", 2,
                "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"schema", "environment", "checks", "all_passed",
                           "timing"}
    assert report["schema"] == 1
    assert report["all_passed"] is True
    assert set(report["environment"]) == {"seed", "k", "solver"}
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
                                  ["verify", "--tol-cond", 1e-7]])
def test_option_the_subcommand_does_not_read_exit_2(args):
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
