"""Exception types shared across the package."""


class EigengradError(Exception):
    """Base class for all errors raised by this package."""


class NonSquareError(EigengradError, ValueError):
    pass


class NonFiniteError(EigengradError, ValueError):
    pass


class NotAnOperator(EigengradError, TypeError):
    """An array, or anything else but a SymmetricOperator, where an operator
    is expected."""

    def __init__(self, name, obj):
        super().__init__(f"{name} must be a SymmetricOperator, got {type(obj).__name__}; "
                         "wrap an array with eg.make_dense (eg.make_spd for a mass matrix)")


class DimensionMismatch(EigengradError, ValueError):
    pass


class NotPositiveDefinite(EigengradError):
    pass


class MaxIterExceeded(EigengradError):
    """Iteration budget exhausted; `payload` carries the best iterate."""

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class ValidityViolated(EigengradError):
    """A degeneracy validity condition does not hold for the given input."""

    def __init__(self, defect, message=None):
        super().__init__(message or f"validity condition violated, defect {defect:.3e}")
        self.defect = defect


class GaugeAlignmentFailed(EigengradError):
    pass


class ClusterSplit(EigengradError):
    """A degenerate group separated under an FD step, or k cut an eigenspace.

    ``defect`` is the measured size of the split, when there is one.
    """

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class InvalidSpec(EigengradError, ValueError):
    pass
