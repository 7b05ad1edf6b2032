"""Print which LAPACK an n = 400 dense reduction runs on.

    PYTHONPATH=src python .github/scripts/reduction_route.py [--expect numpy]

With --expect, exit 1 unless the reduction took that route, so a lookup
that silently falls back to scipy's one-thread LAPACK cannot hide there.
"""

import argparse
import sys

import numpy as np

import eigengrad as eg
from eigengrad import sampling

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--expect", choices=("numpy", "scipy"))
args = parser.parse_args()

A, M = sampling.pencil_from_spectrum([1.0, 1.0, 2.0], 400, np.random.default_rng(0),
                                     mass="random")
A, M = eg.make_dense(A), eg.make_spd(M)
# eig_dense seeds the linearization memoized on its result with its own
# reduction, so this reads that one and runs no second
route = eg.linearize(A, M, eg.eig_dense(A, M, 3)).reduction.lapack.name
print(f"an n = 400 reduction ran on {route}'s LAPACK")
sys.exit(args.expect is not None and route != args.expect)
