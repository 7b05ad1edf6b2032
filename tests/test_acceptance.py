"""Acceptance gate: nine criteria, one printed pass/fail line each.

Each test aggregates the worst measured error across its instances, prints a
single summary line, and then asserts against the stated tolerance.
"""

import time

import numpy as np
import pytest

import eigengrad as eg
from eigengrad import cli, oracle, sampling
from eigengrad.errors import ValidityViolated

from conftest import make_pencil, pairing_gap


def report(num, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE] criterion {num} ({title}): {status}  {detail}")


def test_criterion_1_primal_correctness():
    worst_resid = worst_ortho = worst_iter = 0.0
    for n in (6, 20, 50):
        for k in (1, 3, 5):
            for seed in range(10):
                A, M = make_pencil([], n, seed, mass="random")
                Ad, Md = eg.as_dense_array(A), eg.as_dense_array(M)
                eig = eg.eig_dense(A, M, k)
                scale = np.linalg.norm(Ad) * np.linalg.norm(eig.X)
                resid = np.linalg.norm(Ad @ eig.X - Md @ eig.X * eig.lambdas)
                worst_resid = max(worst_resid, resid / scale)
                ortho = np.max(np.abs(eig.X.T @ Md @ eig.X - np.eye(k)))
                worst_ortho = max(worst_ortho, ortho)
                it = eg.eig_iterative(A, M, k, tol=1e-10, seed=seed)
                gap = (np.max(np.abs(it.lambdas - eig.lambdas))
                       / max(1.0, np.max(np.abs(eig.lambdas))))
                worst_iter = max(worst_iter, gap)
    ok = worst_resid <= 1e-9 and worst_ortho <= 1e-10 and worst_iter <= 1e-7
    report(1, "primal correctness", ok,
           f"resid={worst_resid:.2e} ortho={worst_ortho:.2e} "
           f"iter={worst_iter:.2e}")
    assert worst_resid <= 1e-9
    assert worst_ortho <= 1e-10
    assert worst_iter <= 1e-7


def test_criterion_2_forward_vs_finite_differences():
    worst_lam = worst_x = 0.0
    ratios = []
    for seed in range(3):
        A, M = make_pencil([], 8, seed, mass="random")
        eig = eg.eig_dense(A, M, 3)
        rng = np.random.default_rng(100 + seed)
        t = sampling.valid_tangent(eig, M, rng)
        out = eg.jvp(A, M, eig, t)
        errs = []
        for h in (1e-5, 2e-5):
            fd = oracle.finite_difference_jvp(A, M, 3, "smallest", t,
                                              step=h, base=eig)
            if h == 1e-5:
                lam = (np.max(np.abs(out.lambda_prime - fd.lambda_prime))
                       / max(1.0, np.max(np.abs(out.lambda_prime))))
                worst_lam = max(worst_lam, lam)
                worst_x = max(worst_x,
                              np.max(np.abs(out.X_prime - fd.X_prime)))
            errs.append(np.linalg.norm(fd.X_prime - out.X_prime))
        ratios.append(errs[1] / errs[0])
    rich_ok = all(3.0 <= r <= 5.0 for r in ratios)
    ok = worst_lam <= 1e-7 and worst_x <= 1e-6 and rich_ok
    report(2, "forward vs finite differences", ok,
           f"lam={worst_lam:.2e} X={worst_x:.2e} "
           f"richardson={min(ratios):.2f}..{max(ratios):.2f}")
    assert worst_lam <= 1e-7
    assert worst_x <= 1e-6
    assert rich_ok


def _series_instances():
    specs = [[], [2.0, 2.0, 5.0], [1.0, 1.0, 1.0, 4.0]]
    for mass in ("identity", "random"):
        for spec in specs:
            A, M = make_pencil(spec, 6, 77, mass=mass)
            k = max(3, len(spec))
            yield A, M, eg.eig_dense(A, M, k)


def test_criterion_3_forward_vs_series_oracle():
    worst = 0.0
    rng = np.random.default_rng(3)
    for A, M, eig in _series_instances():
        fs = oracle.full_spectrum(A, M)
        for _ in range(3):
            t = sampling.valid_tangent(eig, M, rng)
            out = eg.jvp(A, M, eig, t)
            ser = oracle.jvp_series(fs, M, eig, t)
            worst = max(worst,
                        np.max(np.abs(out.lambda_prime - ser.lambda_prime)),
                        np.max(np.abs(out.X_prime - ser.X_prime)))
    ok = worst <= 1e-8
    report(3, "forward vs series oracle", ok, f"max-abs={worst:.2e}")
    assert ok


def test_criterion_4_degenerate_projector_fd():
    worst = 0.0
    rng = np.random.default_rng(4)
    for spec, n, k in ([2.0, 2.0, 5.0], 5, 3), ([1.0, 1.0, 1.0, 4.0], 6, 4):
        for mass in ("identity", "random"):
            A, M = make_pencil(spec, n, 21, mass=mass)
            eig = eg.eig_dense(A, M, k)
            t = sampling.valid_tangent(eig, M, rng)
            out = eg.jvp(A, M, eig, t)
            fd = oracle.finite_difference_jvp(A, M, k, "smallest", t,
                                              step=1e-5, base=eig)
            for grp in eig.groups:
                if len(grp) < 2:
                    continue
                Pan = oracle.analytic_projector_derivative(eig, out, M,
                                                           t.Mprime, tuple(grp))
                worst = max(worst,
                            np.max(np.abs(Pan - fd.proj_prime[tuple(grp)])))
    ok = worst <= 1e-6
    report(4, "degenerate projector finite differences", ok,
           f"max-abs={worst:.2e}")
    assert ok


def test_criterion_5_adjoint_pairing():
    worst = 0.0
    rng = np.random.default_rng(5)
    for spec in ([], [2.0, 2.0, 5.0]):
        A, M = make_pencil(spec, 6, 31, mass="random")
        eig = eg.eig_dense(A, M, 3)
        for solver in ("dense", "iterative"):
            for _ in range(20):
                t = sampling.valid_tangent(eig, M, rng)
                c = sampling.valid_cotangent(eig, M, rng)
                worst = max(worst, pairing_gap(A, M, eig, t, c, solver=solver))
    ok = worst <= 1e-8
    report(5, "adjoint pairing", ok, f"rel={worst:.2e}")
    assert ok


def test_criterion_6_backward_vs_series_oracle():
    worst = 0.0
    rng = np.random.default_rng(6)
    for A, M, eig in _series_instances():
        fs = oracle.full_spectrum(A, M)
        for _ in range(3):
            c = sampling.valid_cotangent(eig, M, rng)
            out = eg.vjp(A, M, eig, c)
            ser = oracle.vjp_series(fs, M, eig, c)
            worst = max(worst,
                        np.max(np.abs(out.A_bar - ser.A_bar)),
                        np.max(np.abs(out.M_bar - ser.M_bar)))
    ok = worst <= 1e-8
    report(6, "backward vs series oracle", ok, f"max-abs={worst:.2e}")
    assert ok


def test_criterion_7_validity_enforcement():
    rng = np.random.default_rng(7)
    A, M = make_pencil([2.0, 2.0, 5.0], 5, 41, mass="random")
    eig = eg.eig_dense(A, M, 3)
    grp = [g for g in eig.groups if len(g) > 1][0]

    bad_t = sampling.violating_tangent(eig, M, grp)
    _, tdef = eg.check_forward_validity(eig, bad_t)
    bad_c = sampling.violating_cotangent(eig, M, grp)
    _, cdef = eg.check_backward_validity(eig, bad_c)
    rejected = True
    try:
        eg.jvp(A, M, eig, bad_t)
        rejected = False
    except ValidityViolated:
        pass
    try:
        eg.vjp(A, M, eig, bad_c)
        rejected = False
    except ValidityViolated:
        pass

    good_worst = 0.0
    for _ in range(5):
        _, d1 = eg.check_forward_validity(eig, sampling.valid_tangent(eig, M, rng))
        _, d2 = eg.check_backward_validity(eig, sampling.valid_cotangent(eig, M, rng))
        good_worst = max(good_worst, d1, d2)

    ok = rejected and tdef >= 0.5 and cdef >= 0.5 and good_worst <= 1e-10
    report(7, "validity-condition enforcement", ok,
           f"violating>={min(tdef, cdef):.2f} valid<={good_worst:.2e}")
    assert ok


def test_criterion_8_degenerate_collapse_continuity():
    n, grp = 4, (0, 1)
    rng = np.random.default_rng(8)
    U = sampling.random_orthogonal(n, rng)
    M = eg.identity_operator(n)
    Mp = eg.make_dense(np.zeros((n, n)))

    def pencil(delta):
        spec = np.array([2.0, 2.0 + delta, 5.0, 9.0])
        return eg.make_dense(U @ np.diag(spec) @ U.T)

    def projector_derivative(eig, out):
        Xg, Xpg = eig.X[:, list(grp)], out.X_prime[:, list(grp)]
        return Xpg @ Xg.T + Xg @ Xpg.T

    # exact-degenerate reference in the basis the perturbation selects
    lam0 = np.array([2.0, 2.0, 5.0])
    groups0 = eg.build_degeneracy(lam0)
    eig0 = eg.EigenResult(X=U[:, :3].copy(), lambdas=lam0,
                          groups=groups0, which="smallest")
    # group-valid direction: no (0,1) coupling in that basis
    C = sampling.random_symmetric(n, rng)
    C[0, 1] = C[1, 0] = 0.0
    t = eg.TangentInput(Aprime=eg.make_dense(U @ C @ U.T), Mprime=Mp)
    # naive direction: pure in-group coupling
    Cbad = np.zeros((n, n))
    Cbad[0, 1] = Cbad[1, 0] = 1.0
    t_bad = eg.TangentInput(Aprime=eg.make_dense(U @ Cbad @ U.T), Mprime=Mp)

    out0 = eg.jvp(pencil(0.0), M, eig0, t)
    P0 = projector_derivative(eig0, out0)

    deltas = (1e-2, 1e-4, 1e-6)
    errs, naive_norms = [], []
    for d in deltas:
        A = pencil(d)
        # force non-degenerate treatment of the split pair
        eig = eg.eig_dense(A, M, 3)
        eig = eg.EigenResult(X=eig.X, lambdas=eig.lambdas, groups=[[0], [1], [2]])
        out = eg.jvp(A, M, eig, t)
        errs.append(np.max(np.abs(projector_derivative(eig, out) - P0)))
        out_bad = eg.jvp(A, M, eig, t_bad)
        naive_norms.append(max(np.linalg.norm(out_bad.X_prime[:, j])
                               for j in grp))

    linear = all(errs[i] <= 20.0 * errs[0] * (deltas[i] / deltas[0])
                 for i in range(1, len(deltas)))
    scaled = [nn * d for nn, d in zip(naive_norms, deltas)]
    blowup = max(scaled) / min(scaled) <= 2.0
    ok = linear and blowup
    report(8, "degenerate-collapse continuity", ok,
           f"proj errs={['%.1e' % e for e in errs]} "
           f"naive |X'|={['%.1e' % v for v in naive_norms]}")
    assert linear, errs
    assert blowup, naive_norms


def test_criterion_9_end_to_end_cli(tmp_path):
    start = time.time()
    code = cli.main(["verify", "--out", str(tmp_path)])
    elapsed = time.time() - start
    ok = code == 0 and elapsed < 60.0
    report(9, "end-to-end verify", ok, f"exit={code} elapsed={elapsed:.1f}s")
    assert code == 0
    assert elapsed < 60.0
