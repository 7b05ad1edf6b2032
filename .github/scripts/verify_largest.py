"""Run ``eigengrad verify --which largest`` on each seed given and check the run.

    PYTHONPATH=src python .github/scripts/verify_largest.py SEED [SEED ...]

k = 2 cuts degen225's double eigenvalue, so every run records a failed check
and exits 1; an uncaught exception exits 1 too. So each run must exit 1, print
no traceback, and write a report with checks for all five instances whose
failed checks are only the by-design ClusterSplits and iter50's series checks
(a tol-1e-9 primal's eigenvector error over the gap to lambda_{k+1}): no
finite-difference check may fail. A numpy RuntimeWarning is an error, as in
the tier-1 tests. Exits 1 at the first run that breaks this, after printing
its output.
"""

import json
import os
import subprocess
import sys
import tempfile

INSTANCES = {"diag123", "degen225", "degen1114", "random20", "iter50"}
PINNED = {"degen225/ClusterSplit", "degen1114/ClusterSplit",
          "iter50/jvp_vs_series", "iter50/vjp_vs_series"}


def as_expected(seed, out):
    """(exit code, output, whether the run is as expected) of one verify run."""
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "eigengrad.cli",
                          "verify", "--seed", seed, "--which", "largest", "--out", out],
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    report = os.path.join(out, "report.json")
    if run.returncode != 1 or "Traceback" in run.stdout or not os.path.exists(report):
        return run.returncode, run.stdout, False
    with open(report) as fh:
        checks = json.load(fh)["checks"]
    labels = {c["name"].split("/")[0] for c in checks}
    failed = {c["name"] for c in checks if c["status"] != "pass"}
    return run.returncode, run.stdout, labels == INSTANCES and failed <= PINNED


def main(seeds):
    for seed in seeds:
        with tempfile.TemporaryDirectory() as out:
            code, log, ok = as_expected(seed, out)
        if not ok:
            print(log)
            sys.exit(f"verify --seed {seed} --which largest: exit {code}")
    print(f"verify --which largest: {len(seeds)} seeds as expected")


if __name__ == "__main__":
    main(sys.argv[1:])
