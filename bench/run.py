"""Run one eigengrad benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload dense-n1000 --seed 1 --seconds 30 --trace 0

Workloads: dense-n1000, fem-membrane, verify-suite (see workloads.py). Each
is a closed loop with one caller: the next op starts when the last one has
been checked. With ``--trace 0`` the result holds the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics,
from a traced half of the run compared with an untraced half. The last line
of stdout is the result; the line before it records the environment, the
sample counts and the per-workload breakdown. Exits with code 2 when the
checkout has no eigengrad sources.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

# An untraced run is split over this many fresh processes, one after another,
# each importing, setting up and measuring its share of the time. How fast a
# process runs the interpreter-bound verify-suite varies by up to 30% from one
# process to the next (with the hash seed, among others), so pooling the
# samples of several processes is what keeps a run's median steady. The
# median over the processes is also the set-up time.
PARTS = 5
TAIL_BEYOND = 10
# spans each workload must produce, proving every wrapper intercepted calls
EXPECTED_SPANS = {
    "dense-n1000": ["eigsolve.eig_dense", "sylvester.solve_dense", "sylvester.project_rhs",
                    "jvp.validity", "jvp", "vjp.validity", "vjp"],
    "fem-membrane": ["eigsolve.eig_iterative", "sylvester.solve_iterative",
                     "sylvester.project_rhs", "jvp.validity", "jvp", "vjp.validity", "vjp",
                     "linop.apply"],
    "verify-suite": ["cli.verify", "eigsolve.eig_dense", "eigsolve.eig_iterative",
                     "sylvester.solve_dense", "sylvester.solve_iterative",
                     "sylvester.project_rhs", "jvp.validity", "jvp", "vjp.validity", "vjp",
                     "oracle.full_spectrum", "oracle.series", "oracle.fd", "sampling"],
}


class Tally:
    """Samples and outcome counts of a stretch of ops."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0          # raised, or a benchmark check rejected the output
        self.verdict_failed = 0  # checked fine, but the verify report says all_passed: false
        self.notes = []

    def median(self, key):
        values = self.samples.get(key)
        return statistics.median(values) if values else None

    def add(self, other):
        for key, values in other.samples.items():
            self.samples.setdefault(key, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.verdict_failed += other.verdict_failed
        self.notes += other.notes


def measure(workload, rng, seconds, tracer=None, first=0, stride=1):
    """Run ops first, first + stride, ... back to back for ``seconds``.

    An op is never retried or dropped. It fails when it raises (an
    EigengradError or a stray error alike) or when a benchmark check rejects
    its output.
    """
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = first
    while tally.attempted == 0 or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = i
        tally.attempted += 1
        try:
            rec = workload.op(i, rng, tracer)
        except Exception as exc:  # noqa: BLE001  (counted, and the run goes on)
            tally.failed += 1
            tally.notes.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            for key, values in rec.times.items():
                tally.samples.setdefault(key, []).extend(values)
            if not rec.ok:
                tally.failed += 1
                tally.notes.append(f"op {i}: check failed {rec.defects}")
            elif not rec.passed:
                tally.verdict_failed += 1
        i += stride
    return tally


def tail(values, beyond=TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it, or None."""
    ordered = sorted(values)
    if len(ordered) <= beyond:
        return None
    idx = len(ordered) - beyond - 1
    return {"value": ordered[idx], "unit": "s",
            "percentile": round(100.0 * (idx + 1) / len(ordered), 1),
            "samples": len(ordered), "beyond": beyond}


def breakdown(name, tally, setup_s, rss_mb):
    """Finer metrics of this workload (grad_step_s, jvp_s, tails, fail_ratio, ...)."""
    out = {"setup_s": {"value": setup_s, "unit": "s"},
           "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
           "fail_ratio": {"value": (tally.failed + tally.verdict_failed) / tally.attempted,
                          "unit": "1", "failed": tally.failed + tally.verdict_failed,
                          "attempted": tally.attempted}}
    if name == "verify-suite":
        out["verify_s"] = {"value": tally.median("step"), "unit": "s",
                           "samples": len(tally.samples.get("step", []))}
        out["verify_tail_s"] = tail(tally.samples.get("step", []))
        return out
    out["grad_step_s"] = {"value": tally.median("step"), "unit": "s",
                          "samples": len(tally.samples.get("step", []))}
    out["jvp_s"] = {"value": tally.median("jvp"), "unit": "s",
                    "samples": len(tally.samples.get("jvp", []))}
    if name == "dense-n1000":
        out["jvp_tail_s"] = tail(tally.samples.get("jvp", []))
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(script, args, env=None):
    """Run a script of this directory in a fresh process; its last stdout line as JSON."""
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, os.path.join(here, script)] + args,
                          env=env, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def set_up(args):
    """Import eigengrad, build the workload and its inputs; returns it and the set-up time."""
    import numpy as np

    import workloads

    import_s = time.perf_counter() - T0
    workload = workloads.WORKLOADS[args.workload]()
    start = time.perf_counter()
    workload.setup(np.random.default_rng([args.seed, 0]))
    return workload, import_s + time.perf_counter() - start


def run_part(args):
    """One process of an untraced run: print its raw tally, set-up time and memory."""
    import numpy as np

    workload, setup_s = set_up(args)
    try:
        tally = measure(workload, np.random.default_rng([args.seed, 1, args.part]),
                        args.seconds, first=args.part, stride=PARTS)
    finally:
        workload.close()
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
                      "environment": common.environment(), "samples": tally.samples,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "verdict_failed": tally.verdict_failed, "notes": tally.notes}))


def run_untraced(args, detail):
    """PARTS processes, part p measuring ops p, p + PARTS, ... for its share of time."""
    tally, setups, rss = Tally(), [], []
    for part in range(PARTS):
        out = child("run.py", ["--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds / PARTS), "--part", str(part)])
        setups.append(out["setup_s"])
        rss.append(out["peak_rss_mb"])
        detail["environment"] = out["environment"]
        share = Tally()
        share.samples, share.notes = out["samples"], out["notes"]
        share.attempted, share.failed = out["attempted"], out["failed"]
        share.verdict_failed = out["verdict_failed"]
        tally.add(share)
    setup_s, rss_mb = statistics.median(setups), statistics.median(rss)
    passed = tally.attempted - tally.failed - tally.verdict_failed
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "step_s": {"value": tally.median("step"), "unit": "s"},
        "op_s": {"value": tally.median("op"), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "pass_ratio": {"value": passed / tally.attempted, "unit": "1"},
    }
    detail["setup_parts_s"] = setups
    detail["peak_rss_parts_mb"] = rss
    detail["breakdown"] = breakdown(args.workload, tally, setup_s, rss_mb)
    return tally, metrics, []


def run_traced(args, detail):
    """One process: half the time untraced, half traced; per-layer metrics."""
    import numpy as np

    import tracing

    workload, detail["setup_s"] = set_up(args)
    detail["environment"] = common.environment()
    rng = np.random.default_rng([args.seed, 1])
    try:
        # both halves run ops 0, 1, ...: the same pencils, start blocks and
        # verify seeds, so their difference is the tracing overhead
        plain = measure(workload, rng, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = measure(workload, rng, args.seconds / 2, tracer)
    finally:
        workload.close()
    layers, calls = tracing.layer_metrics(tracer.spans, traced.attempted)
    traced_op, plain_op = traced.median("op"), plain.median("op")
    overhead = None if None in (traced_op, plain_op) else traced_op - plain_op
    layers["trace.overhead_s"] = (overhead, "s/op")
    primal_1t = 0.0
    if args.workload == "fem-membrane":
        probe = child("single_thread.py", [], env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        primal_1t = probe["eig_iterative_s"]
        detail["single_thread_probe"] = probe
    layers["eigsolve.eig_iterative_1t_s"] = (primal_1t, "s")
    missing = [name for name in EXPECTED_SPANS[args.workload] if calls[name] == 0]
    os.makedirs(common.OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(common.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    detail["untraced_op_s"] = plain_op
    plain.add(traced)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    return plain, metrics, [f"wrappers saw no calls: {missing}"] if missing else []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dense-n1000", "fem-membrane", "verify-suite"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--part", type=int, choices=range(PARTS),
                        help="run one of the processes of an untraced run and print its tally")
    args = parser.parse_args(argv)

    common.check_sources()
    if args.part is not None:
        run_part(args)
        return 0
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    tally, metrics, problems = (run_traced if args.trace else run_untraced)(args, detail)
    detail["samples"] = {key: len(v) for key, v in tally.samples.items()}
    detail["verdict_failed"] = tally.verdict_failed
    notes = (problems + tally.notes)[:20]
    detail["notes"] = notes
    for note in notes:
        print(note, file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": tally.failed == 0 and not problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
