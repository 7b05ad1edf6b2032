"""Derivatives of partial symmetric generalized eigendecomposition.

Forward (JVP) and reverse (VJP) modes of the map (A, M) -> (Lambda, X) for
A X = M X Lambda with X^T M X = I, correct in the presence of repeated
eigenvalues, with matrix-free solvers. The dense verification oracles live
in :mod:`eigengrad.oracle`, which this package does not import.
"""

from . import errors, sampling
from .linop import (DenseSymmetric, LowRank, SymmetricOperator, as_dense_array,
                    check_symmetry, identity_operator, make_dense, make_spd,
                    read_symmat, write_symmat)
from .eigsolve import (EigenResult, build_degeneracy, eig_dense, eig_iterative)
from .sylvester import (Linearization, SylvesterSolution, linearize,
                        solve_dense, solve_iterative)
from .jvp import TangentInput, TangentOutput, check_forward_validity, jvp
from .vjp import (CotangentInput, CotangentOutput, check_backward_validity,
                  vjp)

__version__ = "0.1.0"

__all__ = [
    "errors", "sampling",
    "SymmetricOperator", "DenseSymmetric", "LowRank",
    "make_dense", "make_spd", "identity_operator", "as_dense_array",
    "check_symmetry", "read_symmat", "write_symmat",
    "EigenResult", "eig_dense", "eig_iterative", "build_degeneracy",
    "Linearization", "linearize",
    "SylvesterSolution", "solve_dense", "solve_iterative",
    "TangentInput", "TangentOutput", "check_forward_validity", "jvp",
    "CotangentInput", "CotangentOutput", "check_backward_validity",
    "vjp",
]
