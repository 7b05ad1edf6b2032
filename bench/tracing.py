"""Spans around eigengrad's public functions, installed from outside the package.

Each target is replaced where its caller looks it up (``eigengrad.cli.jvp``,
``eigengrad.jvp.solve_dense``, ...), so calls made inside the package are
seen too. Spans (name, start, end, parent, op id, attributes) stay in memory
and are written out when the run ends. Nothing here changes what a call
returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span): every public function as each caller binds it.
# ``eigengrad.jvp`` and ``eigengrad.vjp`` are also package attributes naming
# the functions, so modules are always taken from importlib.import_module.
TARGETS = [
    ("eigengrad", "eig_dense", "eigsolve.eig_dense"),
    ("eigengrad", "eig_iterative", "eigsolve.eig_iterative"),
    ("eigengrad", "jvp", "jvp"),
    ("eigengrad", "vjp", "vjp"),
    ("eigengrad.eigsolve", "eig_dense", "eigsolve.eig_dense"),
    ("eigengrad.jvp", "check_forward_validity", "jvp.validity"),
    ("eigengrad.jvp", "project_rhs", "sylvester.project_rhs"),
    ("eigengrad.jvp", "solve_dense", "sylvester.solve_dense"),
    ("eigengrad.jvp", "solve_iterative", "sylvester.solve_iterative"),
    ("eigengrad.vjp", "check_backward_validity", "vjp.validity"),
    ("eigengrad.vjp", "project_rhs", "sylvester.project_rhs"),
    ("eigengrad.vjp", "solve_dense", "sylvester.solve_dense"),
    ("eigengrad.vjp", "solve_iterative", "sylvester.solve_iterative"),
    ("eigengrad.cli", "run_verify", "cli.verify"),
    ("eigengrad.cli", "eig_dense", "eigsolve.eig_dense"),
    ("eigengrad.cli", "eig_iterative", "eigsolve.eig_iterative"),
    ("eigengrad.cli", "jvp", "jvp"),
    ("eigengrad.cli", "vjp", "vjp"),
    ("eigengrad.cli", "check_forward_validity", "jvp.validity"),
    ("eigengrad.cli", "check_backward_validity", "vjp.validity"),
    ("eigengrad.oracle", "eig_dense", "eigsolve.eig_dense"),
    ("eigengrad.oracle", "check_forward_validity", "jvp.validity"),
    ("eigengrad.oracle", "check_backward_validity", "vjp.validity"),
    ("eigengrad.oracle", "full_spectrum", "oracle.full_spectrum"),
    ("eigengrad.oracle", "jvp_series", "oracle.series"),
    ("eigengrad.oracle", "vjp_series", "oracle.series"),
    ("eigengrad.oracle", "finite_difference_jvp", "oracle.fd"),
    ("eigengrad.sampling", "pencil_from_spectrum", "sampling"),
    ("eigengrad.sampling", "random_spd_pencil", "sampling"),
    ("eigengrad.sampling", "valid_tangent", "sampling"),
    ("eigengrad.sampling", "valid_cotangent", "sampling"),
    ("eigengrad.sampling", "violating_tangent", "sampling"),
]

# span name -> metric of its self time
SELF_TIME = {
    "eigsolve.eig_dense": "eigsolve.eig_dense_s",
    "eigsolve.eig_iterative": "eigsolve.eig_iterative_s",
    "sylvester.solve_dense": "sylvester.solve_dense_s",
    "sylvester.project_rhs": "sylvester.project_rhs_s",
    "sylvester.solve_iterative": "sylvester.solve_iterative_s",
    "jvp.validity": "jvp.validity_s",
    "jvp": "jvp.self_s",
    "vjp.validity": "vjp.validity_s",
    "vjp": "vjp.self_s",
    "linop.apply": "linop.apply_s",
    "oracle.full_spectrum": "oracle.full_spectrum_s",
    "oracle.series": "oracle.series_s",
    "oracle.fd": "oracle.fd_s",
    "sampling": "sampling.s",
    "cli.verify": "cli.verify_self_s",
}

COUNTS = ["eigsolve.A_applies", "eigsolve.M_applies", "sylvester.A_applies",
          "sylvester.minres_iters", "linop.tangent_applies"]


def _record_iterations(attrs, solution):
    attrs["iters"] = int(solution.iterations.sum())


ON_RESULT = {"sylvester.solve_iterative": _record_iterations}


class _Span:
    __slots__ = ("tracer", "name", "attrs", "idx")

    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.idx = self.tracer.open(self.name, self.attrs)

    def __exit__(self, exc_type, exc, tb):
        self.tracer.close(self.idx, error=exc_type is not None)
        return False


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, attrs]
        self.op = None
        self._stack = []

    def open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, attrs or {}])
        self._stack.append(idx)
        return idx

    def close(self, idx, error=False):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        if error:
            self.spans[idx][5]["error"] = True

    def span(self, name, **attrs):
        return _Span(self, name, attrs)

    def wrap(self, fn, name):
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, error=True)
                raise
            self.close(idx)
            if on_result is not None:
                on_result(self.spans[idx][5], out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module, attr, name in TARGETS:
                mod = importlib.import_module(module)
                if not isinstance(mod, types.ModuleType):
                    raise TypeError(f"{module} is not a module")
                original = getattr(mod, attr)
                setattr(mod, attr, self.wrap(original, name))
                undo.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": self.spans}, fh)


def _nearest(spans, idx, prefixes):
    """Name of the closest ancestor of span idx whose name has one of the prefixes."""
    parent = spans[idx][3]
    while parent is not None:
        name = spans[parent][0]
        if name.startswith(prefixes):
            return name
        parent = spans[parent][3]
    return None


def layer_metrics(spans, ops):
    """Per-op self time, calls and errors of every span name, plus counts.

    Self time is a span's duration minus that of its children (one thread, so
    children never overlap). Operator applies are counted in vectors and
    attributed to the enclosing eigsolve or sylvester span.
    """
    ops = max(ops, 1)
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s, calls, errors, counts = Counter(), Counter(), Counter(), Counter()
    for idx, (name, start, end, parent, _, attrs) in enumerate(spans):
        self_s[name] += end - start - child[idx]
        calls[name] += 1
        errors[name] += bool(attrs.get("error"))
        if name == "sylvester.solve_iterative":
            counts["sylvester.minres_iters"] += attrs.get("iters", 0)
        if name != "linop.apply":
            continue
        kind = attrs["kind"]
        if kind == "tangent":
            counts["linop.tangent_applies"] += attrs["cols"]
            continue
        owner = _nearest(spans, idx, ("eigsolve.", "sylvester."))
        if owner is not None:
            counts[f"{owner.split('.')[0]}.{kind}_applies"] += attrs["cols"]

    metrics = {}
    for name, metric in SELF_TIME.items():
        metrics[metric] = (self_s[name] / ops, "s/op")
        metrics[f"{name}.calls"] = (calls[name] / ops, "count/op")
        metrics[f"{name}.errors"] = (errors[name] / ops, "count/op")
    for name in COUNTS:
        metrics[name] = (counts[name] / ops, "count/op")
    return metrics, calls
