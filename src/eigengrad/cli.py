"""Command-line harness: generate test pencils, run derivatives, verify.

``eigengrad verify`` runs the full cross-check battery (symmetry, primal
residuals, validity conditions, series oracle, finite differences
extrapolated from steps h and 2h, adjoint pairing) and writes a
machine-readable JSON report. Exit codes: 0 all checks passed, 1 at least one
failed, 2 configuration, IO or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import zlib

import numpy as np

from . import oracle, sampling
from .errors import EigengradError, InvalidSpec
from .eigsolve import eig_dense, eig_iterative
from .jvp import check_forward_validity, jvp
from .linop import (SymmetricOperator, as_dense_array, check_symmetry, make_dense,
                    make_spd, read_rows, read_symmat, write_symmat)
from .vjp import check_backward_validity, vjp

REPORT_SCHEMA = 1


def parse_degeneracy(text):
    """Parse '2x2,5x1' into [(2.0, 2), (5.0, 1)]."""
    spec = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value, mult = part.rsplit("x", 1)
            spec.append((float(value), int(mult)))
        except ValueError as exc:
            raise InvalidSpec(f"bad degeneracy entry {part!r}") from exc
    if any(m < 1 for _, m in spec):
        raise InvalidSpec("multiplicities must be >= 1")
    if not all(np.isfinite(v) for v, _ in spec):
        raise InvalidSpec("eigenvalues must be finite")
    return spec


def generate(cfg):
    """Write A.mat and M.mat with the requested spectrum, seeded."""
    if cfg.n < 2:
        raise InvalidSpec(f"n must be >= 2, got {cfg.n}")
    spec = parse_degeneracy(cfg.degeneracy)
    total = sum(m for _, m in spec)
    if total > cfg.n:
        raise InvalidSpec(f"multiplicities sum to {total} > n = {cfg.n}")
    spectrum = [v for v, m in spec for _ in range(m)]
    rng = np.random.default_rng(cfg.seed)
    A, M = sampling.pencil_from_spectrum(spectrum, cfg.n, rng, mass=cfg.mass)
    os.makedirs(cfg.out, exist_ok=True)
    write_symmat(os.path.join(cfg.out, "A.mat"), A)
    write_symmat(os.path.join(cfg.out, "M.mat"), M)
    return [os.path.join(cfg.out, f) for f in ("A.mat", "M.mat")]


def _solve_eig(A, M, k, solver, cfg, tol):
    """The primal solve of every subcommand, through this module's
    ``eig_dense`` and ``eig_iterative`` names."""
    if solver == "iterative":
        return eig_iterative(A, M, k, cfg.which, tol=tol, seed=cfg.seed)
    return eig_dense(A, M, k, cfg.which)


def run_derivative(cfg):
    """Eigendecompose the input pencil, then push a sampled valid tangent
    (``jvp``) or pull back a sampled valid cotangent (``vjp``)."""
    A, M = read_symmat(cfg.a_path), make_spd(read_rows(cfg.m_path))
    eig = _solve_eig(A, M, cfg.k, cfg.solver, cfg, cfg.tol_eig)
    if cfg.command == "jvp":
        t = sampling.valid_tangent(eig, M, np.random.default_rng(cfg.seed + 1))
        out = jvp(A, M, eig, t, solver=cfg.solver)
        fields = {"lambda_prime": out.lambda_prime, "X_prime": out.X_prime}
    else:
        c = sampling.valid_cotangent(eig, M, np.random.default_rng(cfg.seed + 2))
        out = vjp(A, M, eig, c, solver=cfg.solver)
        fields = {"A_bar": np.asarray(out.A_bar), "M_bar": np.asarray(out.M_bar)}
    payload = {"lambdas": eig.lambdas.tolist(),
               **{key: value.tolist() for key, value in fields.items()},
               "validity_defect": out.validity_defect}
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, f"{cfg.command}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return path


def _check(checks, name, measured, tolerance, **error):
    """Append one report record: pass when ``measured <= tolerance`` (a NaN
    fails); ``error`` adds the message of a check that raised."""
    measured = float(measured)
    checks.append({"name": name, "status": "pass" if measured <= tolerance else "fail",
                   "measured": measured, "tolerance": tolerance, **error})


def _verify_instance(label, A_arr, M_arr, k, cfg, checks, solver="dense"):
    """Run the full check battery on one pencil instance."""
    A = make_dense(A_arr)
    M = make_spd(M_arr)
    rng = np.random.default_rng(cfg.seed + zlib.crc32(label.encode()) % 100000)

    # on the arrays as given: A and M above are symmetrized
    for name, arr in (("A", A_arr), ("M", M_arr)):
        symmetric = check_symmetry(SymmetricOperator(arr.shape[0], None, arr.__matmul__))
        _check(checks, f"{label}/symmetry_{name}", 0.0 if symmetric else 1.0, 0.5)

    fs = oracle.full_spectrum(A, M)
    eig = _solve_eig(A, M, k, solver, cfg, min(cfg.tol_eig, 1e-9))
    if solver == "iterative":
        ref = fs.E[:k] if cfg.which == "smallest" else fs.E[-k:]
        _check(checks, f"{label}/iter_vs_dense_eigenvalues",
               np.max(np.abs(eig.lambdas - ref)) / max(1.0, np.max(np.abs(ref))), 1e-7)

    resid = np.linalg.norm(A_arr @ eig.X - M_arr @ eig.X * eig.lambdas)
    scale = np.linalg.norm(A_arr) * np.linalg.norm(eig.X)
    _check(checks, f"{label}/eig_residual", resid / scale, cfg.tol_eig)
    ortho = np.max(np.abs(eig.X.T @ M_arr @ eig.X - np.eye(k)))
    _check(checks, f"{label}/m_orthonormality", ortho, max(cfg.tol_eig, 1e-10))

    # drawn in turn: t, c, then 20 (tangent, cotangent) pairs for the adjoint
    # pairing; t and c lead one stacked call per mode
    t = sampling.valid_tangent(eig, M, rng)
    if cfg.inject_invalid_tangent:
        multi = [g for g in eig.groups if len(g) > 1]
        if multi:
            t = sampling.violating_tangent(eig, M, multi[0])
    c = sampling.valid_cotangent(eig, M, rng)
    pairs = [(sampling.valid_tangent(eig, M, rng), sampling.valid_cotangent(eig, M, rng))
             for _ in range(20)]
    _, fdefect = check_forward_validity(eig, t)
    _check(checks, f"{label}/forward_validity_defect", fdefect, 1e-10)

    out, *fwds = jvp(A, M, eig, [t] + [tt for tt, _ in pairs], solver=solver)
    ser = oracle.jvp_series(fs, M, eig, t)
    _check(checks, f"{label}/jvp_vs_series",
           max(np.max(np.abs(out.lambda_prime - ser.lambda_prime)),
               np.max(np.abs(out.X_prime - ser.X_prime))), 1e-8)

    # (4 FD(h) - FD(2h)) / 3 cancels the central differences' O(h^2)
    # truncation, which grows with |A' - lambda M'|
    fd = oracle.finite_difference_jvp(A, M, k, eig.which, t, step=cfg.fd_step, base=eig)
    fd2 = oracle.finite_difference_jvp(A, M, k, eig.which, t, step=2 * cfg.fd_step,
                                       base=eig)

    def extrapolated(ref, ref2):
        return (4.0 * ref - ref2) / 3.0

    # a group is compared through its trace rate, since its single rates are
    # only O(step) after a split; a singleton's trace rate is its own rate
    lam_ref = extrapolated(fd.lambda_prime, fd2.lambda_prime)
    lam_err = max(abs(np.sum(out.lambda_prime[grp]) - np.sum(lam_ref[grp]))
                  for grp in eig.groups)
    errs = []
    for grp in eig.groups:
        if len(grp) == 1:
            got = out.X_prime[:, grp]
            ref = extrapolated(fd.X_prime[:, grp], fd2.X_prime[:, grp])
        else:
            got = oracle.analytic_projector_derivative(eig, out, M, t.Mprime, grp)
            ref = extrapolated(fd.proj_prime[tuple(grp)], fd2.proj_prime[tuple(grp)])
        errs.append(np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(got))))
    _check(checks, f"{label}/jvp_eigenvalues_vs_fd",
           lam_err / max(1.0, np.max(np.abs(out.lambda_prime))), 1e-7)
    _check(checks, f"{label}/jvp_eigenvectors_vs_fd", max(errs), 1e-6)

    _, bdefect = check_backward_validity(eig, c)
    _check(checks, f"{label}/backward_validity_defect", bdefect, 1e-10)

    bout, *bwds = vjp(A, M, eig, [c] + [cc for _, cc in pairs], solver=solver)
    bser = oracle.vjp_series(fs, M, eig, c)
    _check(checks, f"{label}/vjp_vs_series",
           max(np.max(np.abs(np.asarray(bout.A_bar) - bser.A_bar)),
               np.max(np.abs(np.asarray(bout.M_bar) - bser.M_bar))), 1e-8)

    worst = 0.0
    for (tt, cc), fwd, bwd in zip(pairs, fwds, bwds):
        lhs = (cc.lambda_bar @ fwd.lambda_prime
               + np.sum(cc.X_bar * fwd.X_prime))
        rhs = (np.sum(np.asarray(bwd.A_bar) * as_dense_array(tt.Aprime))
               + np.sum(np.asarray(bwd.M_bar) * as_dense_array(tt.Mprime)))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    _check(checks, f"{label}/adjoint_pairing", worst, 1e-8)


def run_verify(cfg):
    """Run the verification battery; returns the report dict."""
    start = time.time()
    checks = []

    instances = []
    if cfg.a_path:
        A_arr = read_rows(cfg.a_path)
        M_arr = read_rows(cfg.m_path)
        instances.append(("input", A_arr, M_arr, cfg.k, cfg.solver))
    else:
        rng = np.random.default_rng(cfg.seed)
        instances.append(("diag123", np.diag([1.0, 2.0, 3.0]), np.eye(3), 2, "dense"))
        A, M = sampling.pencil_from_spectrum([2.0, 2.0, 5.0], 3, rng)
        instances.append(("degen225", A, M, 2, "dense"))
        A, M = sampling.pencil_from_spectrum([1.0, 1.0, 1.0, 4.0], 6, rng)
        instances.append(("degen1114", A, M, 4, "dense"))
        A, M = sampling.random_spd_pencil(20, rng)
        instances.append(("random20", A, M, 3, "dense"))
        A, M = sampling.random_spd_pencil(50, rng)
        instances.append(("iter50", A, M, 3, "iterative"))

    for label, A_arr, M_arr, k, solver in instances:
        try:
            _verify_instance(label, A_arr, M_arr, k, cfg, checks, solver=solver)
        except EigengradError as exc:
            _check(checks, f"{label}/{type(exc).__name__}", np.inf, 0.0, error=str(exc))

    report = {
        "schema": REPORT_SCHEMA,
        "environment": {"seed": cfg.seed, "k": cfg.k, "solver": cfg.solver},
        "checks": checks,
        "all_passed": all(r["status"] == "pass" for r in checks),
        "timing": time.time() - start,
    }
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def build_parser():
    p = argparse.ArgumentParser(prog="eigengrad",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def seed_and_out(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=".")

    g = sub.add_parser("generate", help="write a seeded test pencil")
    g.add_argument("--n", type=int, default=6)
    seed_and_out(g)
    g.add_argument("--degeneracy", default="",
                   help="spectrum spec like '2x2,5x1' (value x multiplicity)")
    g.add_argument("--mass", choices=["identity", "random"], default="identity")

    for name, helptext in (("jvp", "forward derivative of an input pencil"),
                           ("vjp", "backward derivative of an input pencil"),
                           ("verify", "run the verification battery")):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--a", dest="a_path", default="")
        sp.add_argument("--m", dest="m_path", default="")
        # verify's default suite fixes its own k and solver: None marks "not given"
        sp.add_argument("--k", type=int, default=None if name == "verify" else 2)
        sp.add_argument("--which", choices=["smallest", "largest"],
                        default="smallest")
        seed_and_out(sp)
        sp.add_argument("--solver", choices=["dense", "iterative"],
                        default=None if name == "verify" else "dense")
        sp.add_argument("--tol-eig", type=float, default=1e-9)
        if name == "verify":
            sp.add_argument("--fd-step", type=float, default=1e-5)
            sp.add_argument("--inject-invalid-tangent", action="store_true",
                            help="feed a validity-violating tangent to "
                                 "degenerate groups (forces a failed check)")
    return p


def _check_options(parser, cfg):
    """parser.error (exit 2) for an option the run would ignore or misuse;
    fills in verify's pencil defaults, k = 2 and the dense solver."""
    for opt in ("tol_eig", "fd_step"):
        value = getattr(cfg, opt, None)    # None: the subcommand has no such option
        if value is not None and not 0 < value < np.inf:    # nan fails too
            parser.error(f"--{opt.replace('_', '-')} must be a finite number above 0, "
                         f"got {value}")
    if cfg.command != "verify":
        return
    if bool(cfg.a_path) != bool(cfg.m_path):
        parser.error("verify reads an input pencil from --a and --m together")
    if cfg.a_path:
        cfg.k = 2 if cfg.k is None else cfg.k
        cfg.solver = cfg.solver or "dense"
    elif cfg.k is not None or cfg.solver is not None:
        parser.error("--k and --solver apply to an --a/--m pencil; "
                     "the default suite fixes its own")


def main(argv=None):
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)    # the run's configuration
        _check_options(parser, cfg)
        if cfg.command == "generate":
            for path in generate(cfg):
                print(path)
            return 0
        if cfg.command in ("jvp", "vjp"):
            print(run_derivative(cfg))
            return 0
        report = run_verify(cfg)
        for rec in report["checks"]:
            print(f"{rec['status']:4s}  {rec['name']}  "
                  f"measured={rec['measured']:.3e} tol={rec['tolerance']:.3e}")
        print("all_passed:", report["all_passed"])
        return 0 if report["all_passed"] else 1
    except (EigengradError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
