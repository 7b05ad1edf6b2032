"""Output checks that share no code with eigengrad.

Every function takes plain numpy arrays, scipy.sparse matrices or anything
else with ``@``, and returns the worst relative defect for the caller to
compare with a tolerance. Nothing here imports eigengrad, so a defect in the
route under test cannot cancel out in its own check.
"""

from __future__ import annotations

import numpy as np

TINY = 1e-300


def _colnorms(V):
    return np.linalg.norm(V, axis=0)


def eig_defect(A, M, lam, X):
    """Worst of the relative residual of A X = M X diag(lam) and of X^T M X = I."""
    AX = A @ X
    MX = M @ X
    res = _colnorms(AX - MX * lam) / np.maximum(_colnorms(AX) + np.abs(lam) * _colnorms(MX), TINY)
    ortho = np.max(np.abs(X.T @ MX - np.eye(X.shape[1])))
    return float(max(res.max(), ortho))


def jvp_defect(A, M, Ap, Mp, lam, X, lam_p, X_p):
    """Residuals of the two differentiated defining equations, relative.

    Column j of (A - l_j M) x'_j + (A' - l_j M') x_j - l'_j M x_j, relative to
    the sum of its terms' norms; and X'^T M X + X^T M X' + X^T M' X relative
    to the largest entry of its terms.
    """
    MX = M @ X
    MpX = Mp @ X
    terms = [A @ X_p, -(M @ X_p) * lam, Ap @ X, -MpX * lam, -MX * lam_p]
    res = _colnorms(sum(terms)) / np.maximum(sum(_colnorms(t) for t in terms), TINY)
    half = X_p.T @ MX
    mass = X.T @ MpX
    ortho = np.max(np.abs(half + half.T + mass)) / max(
        2.0 * np.max(np.abs(half)) + np.max(np.abs(mass)), TINY)
    return float(max(res.max(), ortho))


def pairing_defect(lam_bar, X_bar, lam_p, X_p, pair_A, pair_M):
    """Adjoint pairing <lam_bar, lam'> + <X_bar, X'> = <A_bar, A'> + <M_bar, M'>.

    ``pair_A`` and ``pair_M`` are the right-hand inner products, computed by
    the caller in whatever form the tangent is stored. Relative to the sum of
    the four terms' magnitudes.
    """
    lhs = (float(np.dot(lam_bar, lam_p)), float(np.vdot(X_bar, X_p)))
    rhs = (float(pair_A), float(pair_M))
    scale = max(sum(abs(t) for t in lhs + rhs), TINY)
    return abs(sum(lhs) - sum(rhs)) / scale


def report_problems(report, exit_code, labels):
    """Inconsistencies in an ``eigengrad verify`` report.json and its exit code.

    A report whose checks fail is a valid report; this only asks that it is
    complete and agrees with itself: every instance checked, each status
    matching measured <= tolerance, ``all_passed`` and the exit code matching
    the statuses.
    """
    problems = []
    records = report.get("checks", [])
    for label in labels:
        if not any(r["name"].startswith(label + "/") for r in records):
            problems.append(f"no checks for instance {label}")
    for r in records:
        expected = "pass" if "error" not in r and r["measured"] <= r["tolerance"] else "fail"
        if r["status"] != expected:
            problems.append(f"{r['name']}: status {r['status']}, expected {expected}")
    all_passed = all(r["status"] == "pass" for r in records)
    if report.get("all_passed") is not all_passed:
        problems.append(f"all_passed is {report.get('all_passed')}, checks say {all_passed}")
    if exit_code != (0 if all_passed else 1):
        problems.append(f"exit code {exit_code} with all_passed {all_passed}")
    return problems
