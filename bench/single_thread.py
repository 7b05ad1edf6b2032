"""fem-membrane's primal solve alone: the plain single-thread reference.

Run by ``run.py --trace 1`` in a child process with OPENBLAS_NUM_THREADS=1,
which must be set before numpy loads. Prints one JSON line: the median
eig_iterative time over a few solves and the thread counts it ran with.
The workload seed does not enter: fem-membrane's start blocks follow the
op index.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import common
import workloads

SOLVES = 2


def main():
    fem = workloads.FemMembrane()
    K, M = workloads.membrane(fem.m)
    times = []
    for i in range(SOLVES):   # the start blocks of the workload's first ops
        A = workloads.operator(K, "A", None)
        Mop = workloads.operator(M, "M", None)
        start = time.perf_counter()
        workloads.eg.eig_iterative(A, Mop, fem.K, seed=i)
        times.append(time.perf_counter() - start)
    env = common.environment()
    print(json.dumps({"eig_iterative_s": statistics.median(times), "solves": times,
                      "openblas_threads": env["openblas_threads"],
                      "blas_env": env["blas_env"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
