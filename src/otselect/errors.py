"""Exception types shared across the package."""


class OtselectError(Exception):
    """Base class for all package-specific errors."""


class MalformedFile(OtselectError):
    """A data file violates its declared format (bad magic, shape, or row)."""


class EmptyFile(OtselectError):
    """A file that must contain at least one record contains none."""


class NonFiniteValue(OtselectError):
    """A NaN or infinity was found where only finite values are allowed."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class DimensionMismatch(OtselectError):
    """Two objects that must agree on a dimension do not."""


class SolverFailure(OtselectError):
    """An exact solver hit its iteration cap or returned an invalid status."""


class TooManyClasses(OtselectError):
    """Brute-force enumeration requested for more classes than it supports."""


class SupportMismatch(OtselectError):
    """A feature atom of one distribution is absent from the other's support."""


class DegenerateInput(OtselectError):
    """Input carries no usable signal: any all-zero probability vector (class
    weights, joint masses, transport marginals or sample probabilities)."""


class UnknownLabel(OtselectError):
    """An evaluation label is not among the classifier's output classes."""


class InvalidK(OtselectError):
    """A class count K below the minimum the formula is defined for."""


class InsufficientSamples(OtselectError):
    """Too few distinct samples remain after degenerate pairs are skipped."""


class RowNotSimplex(OtselectError):
    """A row that must be a probability vector is not."""


class InvalidOverlap(OtselectError):
    """A scenario overlap count outside the valid range for its kind."""
