"""The benchmark's tracer (bench/tracing.py) must see every solve layer.

It wraps the solvers, the RHS projection and the validity checks where
``eigengrad.jvp`` and ``eigengrad.vjp`` look them up. A refactor that stops
calling one of them through those module globals, or renames one, leaves a
layer unmeasured or crashes a traced benchmark run; this test fails first.
"""

import importlib.util
from pathlib import Path

import numpy as np

import eigengrad as eg
from eigengrad import sampling

from conftest import make_pencil

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

SOLVE_SPANS = {"sylvester.solve_dense", "sylvester.solve_iterative",
               "sylvester.project_rhs", "jvp.validity", "vjp.validity"}


def test_tracer_sees_every_solve_layer():
    A, M = make_pencil([2.0, 2.0, 5.0], 8, 0, mass="random")
    eig = eg.eig_dense(A, M, 3)
    rng = np.random.default_rng(0)
    t = sampling.valid_tangent(eig, M, rng)
    c = sampling.valid_cotangent(eig, M, rng)
    tracer = tracing.Tracer()
    with tracer.installed():
        for solver in ("dense", "iterative"):
            eg.jvp(A, M, eig, t, solver=solver)
            eg.vjp(A, M, eig, c, solver=solver)
    spans = tracer.spans
    assert SOLVE_SPANS | {"jvp", "vjp"} <= {s[0] for s in spans}
    assert not any(s[5].get("error") for s in spans)
    for name, _, _, parent, _, attrs in spans:
        if name in SOLVE_SPANS:
            assert spans[parent][0] in ("jvp", "vjp")
        if name == "sylvester.solve_iterative":
            assert attrs["iters"] > 0
