"""The benchmark's workloads: inputs from the seed, one op, and its checks.

Every call into eigengrad goes through a public name looked up at call time
(``eg.eig_dense``, ``cli.main``), so the tracer can intercept it. Inputs are
built here and handed over; only the calls into eigengrad are timed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

import checks
import common

eg = common.load_eigengrad()


@dataclass
class OpRecord:
    times: dict                  # sample name -> list of seconds
    ok: bool                     # every benchmark check passed
    passed: bool                 # ok, and the harness's own verdict (verify-suite)
    defects: dict = field(default_factory=dict)


def _timed(times, key, fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    times.setdefault(key, []).append(time.perf_counter() - start)
    return out


def in_group_mask(groups, k):
    """1 where i != j share a degeneracy group; the pairs a valid input may not couple."""
    mask = np.zeros((k, k))
    for grp in groups:
        mask[np.ix_(grp, grp)] = 1.0
    return mask - np.eye(k)


def coupling_free(X, PX, mask):
    """G such that P - (MX) G (MX)^T has no in-group coupling, from PX = P X."""
    G = mask * (X.T @ PX)
    return 0.5 * (G + G.T)


def cotangent(X, MX, mask, rng):
    """Random (lambda_bar, X_bar) with the in-group antisymmetry removed."""
    k = X.shape[1]
    lam_bar = rng.standard_normal(k)
    X_bar = rng.standard_normal(X.shape)
    S = X.T @ X_bar
    X_bar -= 0.5 * MX @ (mask * (S - S.T))
    return eg.CotangentInput(lambda_bar=lam_bar, X_bar=X_bar)


class DiagLowRank:
    """The symmetric matrix diag(d) - U G U^T, applied and paired unformed."""

    def __init__(self, d, U, G):
        self.d, self.U, self.G = d, U, G
        self.shape = (d.size, d.size)

    def __matmul__(self, V):
        D = self.d if V.ndim == 1 else self.d[:, None]
        return D * V - self.U @ (self.G @ (self.U.T @ V))

    def pair(self, B):
        """Frobenius inner product with a dense n x n matrix B."""
        return self.d @ np.diagonal(B) - np.sum(self.U * (B @ (self.U @ self.G.T)))


def operator(mat, kind, tracer):
    """A fresh SymmetricOperator closure over ``mat``; traced applies become spans."""
    n = mat.shape[0]
    if tracer is None:
        return eg.SymmetricOperator(n, mat.__matmul__, mat.__matmul__)

    def apply(V):
        with tracer.span("linop.apply", kind=kind, cols=1 if V.ndim == 1 else V.shape[1]):
            return mat @ V
    return eg.SymmetricOperator(n, apply, apply)


class Sweep:
    """One op: primal solve + one vjp (the step), then jvps on that primal.

    A subclass supplies the operators, the primal call, the tangent form and
    how a dense n x n adjoint pairs with it. Tangents are drawn after the vjp,
    and its n x n outputs are released once paired with the first tangent.
    """

    SOLVER = K = GROUPS = TOL = None

    def __init__(self, jvps):
        self.jvps = jvps

    def close(self):
        pass

    def sweep(self, A, M, start, rng, tracer):
        mask = in_group_mask(self.GROUPS, self.K)
        times = {}
        Aop, Mop = self.operators(A, M, tracer)
        eig = _timed(times, "step", self.primal, Aop, Mop, start)
        X, lam = eig.X, eig.lambdas
        MX = M @ X
        cot = cotangent(X, MX, mask, rng)
        bar = _timed(times, "step", eg.vjp, Aop, Mop, eig, cot, solver=self.SOLVER)
        times["step"] = [sum(times["step"])]
        tangents = [(self.tangent(A, X, MX, mask, rng), self.tangent(M, X, MX, mask, rng))
                    for _ in range(self.jvps)]
        pairs = self.pair(bar.A_bar, tangents[0][0]), self.pair(bar.M_bar, tangents[0][1])
        del bar
        defects = {"eig": checks.eig_defect(A, M, lam, X),
                   "groups": float(eig.groups != self.GROUPS)}
        for j, (Ap, Mp) in enumerate(tangents):
            t = eg.TangentInput(Aprime=operator(Ap, "tangent", tracer),
                                Mprime=operator(Mp, "tangent", tracer))
            out = _timed(times, "jvp", eg.jvp, Aop, Mop, eig, t, solver=self.SOLVER)
            defects["jvp"] = max(defects.get("jvp", 0.0), checks.jvp_defect(
                A, M, Ap, Mp, lam, X, out.lambda_prime, out.X_prime))
            if j == 0:
                defects["pairing"] = checks.pairing_defect(
                    cot.lambda_bar, cot.X_bar, out.lambda_prime, out.X_prime, *pairs)
        times["op"] = [times["step"][0] + sum(times["jvp"])]
        ok = defects["groups"] == 0.0 and all(defects[key] <= tol
                                              for key, tol in self.TOL.items())
        return OpRecord(times=times, ok=ok, passed=ok, defects=defects)


class DenseSweep(Sweep):
    """dense-n1000: eig_dense + vjp, then four jvps, on a random-mass pencil."""

    # Why: the LAPACK route. sylvester.solve_dense runs a full n x n eigh on
    # every call, so the jvps dominate op_s and linearize-once (ROADMAP item 2)
    # should move it; each primal gets one vjp, so a cache that costs the
    # single-use path shows in step_s.
    name = "dense-n1000"
    SOLVER = "dense"
    SPECTRUM = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 5.0]
    K = len(SPECTRUM)
    GROUPS = [[0], [1, 2], [3], [4, 5, 6], [7]]
    TOL = {"eig": 1e-10, "jvp": 1e-10, "pairing": 1e-10}

    def __init__(self, n=1000, pool=2, jvps=4):
        super().__init__(jvps)
        self.n, self.pool_size = n, pool
        self.pool = []

    def setup(self, rng):
        self.pool = [eg.sampling.pencil_from_spectrum(self.SPECTRUM, self.n, rng, mass="random")
                     for _ in range(self.pool_size)]
        A, M = eg.sampling.pencil_from_spectrum(self.SPECTRUM, 40, rng, mass="random")
        self.sweep(A, M, 0, rng, None)

    def op(self, i, rng, tracer=None):
        A, M = self.pool[i % len(self.pool)]
        return self.sweep(A, M, i, rng, tracer)

    def operators(self, A, M, tracer):
        return eg.make_dense(A), eg.make_spd(M)

    def primal(self, Aop, Mop, start):
        return eg.eig_dense(Aop, Mop, self.K)

    def tangent(self, base, X, MX, mask, rng):
        """A dense random symmetric direction minus its in-group coupling."""
        n = X.shape[0]
        S = rng.standard_normal((n, n))
        S = 0.5 * (S + S.T)
        P = S - MX @ coupling_free(X, S @ X, mask) @ MX.T
        return 0.5 * (P + P.T)

    def pair(self, B, P):
        return np.vdot(B, P)


def membrane(m):
    """Q1 FEM stiffness and mass of the unit square with m x m interior nodes.

    K = K1 (x) M1 + M1 (x) K1 and M = M1 (x) M1 from the 1-D Q1 matrices, so
    the eigenvalues are sums of two 1-D ones and the mode pairs (i, j), (j, i)
    are exactly degenerate.
    """
    h = 1.0 / (m + 1)
    ones = np.ones(m)
    K1 = sp.diags([-ones[1:], 2.0 * ones, -ones[1:]], [-1, 0, 1]) / h
    M1 = sp.diags([ones[1:], 4.0 * ones, ones[1:]], [-1, 0, 1]) * (h / 6.0)
    K = (sp.kron(K1, M1) + sp.kron(M1, K1)).tocsr()
    M = sp.kron(M1, M1).tocsr()
    return K, M


class FemMembrane(Sweep):
    """fem-membrane: eig_iterative + vjp, then two jvps, all matrix-free."""

    # Why: the paper's matrix-free route (blocked LOBPCG primal, MINRES
    # derivative solves). At 63 x 63 the primal's two OpenBLAS pools contend
    # (ROADMAP item 1; no such penalty at 47 x 47), and vjp assembles dense
    # n x n outputs (ROADMAP item 5), so step_s and peak_rss_mb show both.
    # LOBPCG's iteration count depends on its random start block (about 10%
    # between start seeds), so op i starts from seed i in every run and the
    # workload seed varies only the derivative directions: runs then differ
    # by machine noise, not by which start blocks they drew.
    name = "fem-membrane"
    SOLVER = "iterative"
    K = 6
    GROUPS = [[0], [1, 2], [3], [4, 5]]
    TOL = {"eig": 1e-8, "jvp": 1e-7, "pairing": 1e-7}

    def __init__(self, m=63, jvps=2):
        super().__init__(jvps)
        self.m = m
        self.pencil = None

    def setup(self, rng):
        self.pencil = membrane(self.m)
        self.sweep(*membrane(11), 0, rng, None)

    def op(self, i, rng, tracer=None):
        return self.sweep(*self.pencil, i, rng, tracer)

    def operators(self, A, M, tracer):
        return operator(A, "A", tracer), operator(M, "M", tracer)

    def primal(self, Aop, Mop, start):
        """No preconditioner; ``start`` seeds the random start block."""
        return eg.eig_iterative(Aop, Mop, self.K, seed=start)

    def tangent(self, base, X, MX, mask, rng):
        """A local change of ``base`` on a random square patch, minus its in-group coupling."""
        m = int(round(np.sqrt(base.shape[0])))
        p = max(2, m // 4)
        i0, j0 = rng.integers(0, m - p + 1, size=2)
        d = np.zeros((m, m))
        d[i0:i0 + p, j0:j0 + p] = rng.uniform(-0.1, 0.1, size=(p, p))
        d = d.ravel() * base.diagonal()
        return DiagLowRank(d, MX, coupling_free(X, d[:, None] * X, mask))

    def pair(self, B, P):
        return P.pair(B)


class VerifySuite:
    """verify-suite: one in-process ``eigengrad verify`` run of the default suite."""

    # Why: the harness users and CI run. Every n <= 50, so the time goes to
    # per-call overhead, the oracles, finite differences and 40+ small jvp/vjp
    # calls per instance: a change that speeds large-n solves but adds per-call
    # set-up shows here. The verify seeds cycle through a fixed panel in an
    # order drawn from the workload seed, so each run sees the same share of
    # the seeds whose iter50 checks fail (measured, never skipped) and
    # pass_ratio stays steady.
    name = "verify-suite"
    PANEL = 40
    LABELS = ("diag123", "degen225", "degen1114", "random20", "iter50")

    def __init__(self):
        self.order = None
        self.out = None

    def setup(self, rng):
        self.order = rng.permutation(self.PANEL)
        os.makedirs(common.OUT_DIR, exist_ok=True)
        self.out = tempfile.mkdtemp(prefix="verify-", dir=common.OUT_DIR)
        self.verify(self.PANEL)

    def op(self, i, rng, tracer=None):
        return self.verify(int(self.order[i % self.PANEL]))

    def verify(self, seed):
        cli = importlib.import_module("eigengrad.cli")
        times = {}
        with contextlib.redirect_stdout(io.StringIO()):
            rc = _timed(times, "step", cli.main,
                        ["verify", "--seed", str(seed), "--out", self.out])
        with open(os.path.join(self.out, "report.json")) as fh:
            report = json.load(fh)
        problems = checks.report_problems(report, rc, self.LABELS)
        times["op"] = list(times["step"])
        ok = not problems
        return OpRecord(times=times, ok=ok, passed=ok and report["all_passed"],
                        defects={"report": float(len(problems))})

    def close(self):
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)
            self.out = None


WORKLOADS = {w.name: w for w in (DenseSweep, FemMembrane, VerifySuite)}
