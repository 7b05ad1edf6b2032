"""Self-test of the benchmark's checks: clean ops pass, corrupted outputs fail.

    python3 -m pytest bench/test_checks.py

Runs each workload's op at a small size. A corrupted ``X_prime`` column or a
scaled ``A_bar`` is injected by wrapping eigengrad's public function, so the
corruption travels the same path as a real defect and must be counted as a
failed op by ``run.measure``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

eg = workloads.eg


def small(name):
    if name == "dense-n1000":
        return workloads.DenseSweep(n=40, pool=1, jvps=2)
    return workloads.FemMembrane(m=11, jvps=2)


def one_op(workload):
    """Set up and run exactly one op (zero seconds still runs one)."""
    workload.setup(np.random.default_rng([7, 0]))
    return run.measure(workload, np.random.default_rng([7, 1]), 0.0)


def corrupt_X_prime(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        out.X_prime[:, 1] *= 1.0 + 1e-4
        return out
    return wrapped


def scale_A_bar(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        out.A_bar *= 1.0 + 1e-4
        return out
    return wrapped


@pytest.mark.parametrize("name", ["dense-n1000", "fem-membrane"])
def test_clean_op_passes(name):
    tally = one_op(small(name))
    assert (tally.attempted, tally.failed, tally.verdict_failed) == (1, 0, 0), tally.notes


@pytest.mark.parametrize("name", ["dense-n1000", "fem-membrane"])
@pytest.mark.parametrize("attr,corrupt", [("jvp", corrupt_X_prime), ("vjp", scale_A_bar)])
def test_corrupted_output_counts_as_failed(monkeypatch, name, attr, corrupt):
    workload = small(name)
    workload.setup(np.random.default_rng([7, 0]))
    monkeypatch.setattr(eg, attr, corrupt(getattr(eg, attr)))
    tally = run.measure(workload, np.random.default_rng([7, 1]), 0.0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "check failed" in tally.notes[0]


def test_raised_error_counts_as_failed(monkeypatch):
    workload = small("dense-n1000")
    workload.setup(np.random.default_rng([7, 0]))

    def refuse(*args, **kwargs):
        raise eg.errors.ValidityViolated(1.0)
    monkeypatch.setattr(eg, "jvp", refuse)
    tally = run.measure(workload, np.random.default_rng([7, 1]), 0.0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "ValidityViolated" in tally.notes[0]


def test_verify_report_checks():
    suite = workloads.VerifySuite()
    try:
        suite.setup(np.random.default_rng([7, 0]))
        rec = suite.op(0, None)
    finally:
        suite.close()
    assert rec.ok and rec.times["step"][0] > 0
    report = {"checks": [{"name": f"{label}/x", "status": "pass", "measured": 0.0,
                          "tolerance": 1.0} for label in suite.LABELS],
              "all_passed": True}
    assert checks.report_problems(report, 0, suite.LABELS) == []
    assert checks.report_problems(report, 1, suite.LABELS)
    report["checks"][0]["measured"] = 2.0
    assert checks.report_problems(report, 0, suite.LABELS)
    assert checks.report_problems({"checks": [], "all_passed": True}, 0, suite.LABELS)


@pytest.mark.parametrize("name", ["dense-n1000", "fem-membrane"])
def test_tracer_sees_every_expected_span(name):
    workload = small(name)
    workload.setup(np.random.default_rng([7, 0]))
    tracer = tracing.Tracer()
    with tracer.installed():
        tally = run.measure(workload, np.random.default_rng([7, 1]), 0.0, tracer)
    assert tally.failed == 0, tally.notes
    metrics, calls = tracing.layer_metrics(tracer.spans, tally.attempted)
    assert all(calls[span] > 0 for span in run.EXPECTED_SPANS[name])
    assert all(start <= end for _, start, end, _, _, _ in tracer.spans)
    assert metrics["jvp.self_s"][0] > 0
    assert eg.jvp is not None and not hasattr(eg.jvp, "__wrapped__")
