"""Exception taxonomy shared by all zerobounds modules."""


class ZeroBoundsError(Exception):
    """Base class for every error raised by this package."""


class NonSquareError(ZeroBoundsError):
    """A square matrix was required."""


class NotHermitianError(ZeroBoundsError):
    """A Hermitian matrix was required (to working precision)."""


class NegativeEntryError(ZeroBoundsError):
    """A matrix with nonnegative real entries was required."""


class NegativeInputError(ZeroBoundsError):
    """A nonnegative scalar input was required."""


class InternalConsistencyError(ZeroBoundsError):
    """A numerically impossible intermediate result (e.g. a PSD matrix with a
    significantly negative eigenvalue); indicates a bug, not bad input."""


class ZeroLeadingCoefficientError(ZeroBoundsError):
    """The leading coefficient of a polynomial must be nonzero."""


class DegreeTooSmallError(ZeroBoundsError):
    """The polynomial degree is below the minimum this operation supports."""


class OddDegreeError(ZeroBoundsError):
    """An even-degree polynomial was required."""


class NonFiniteMatrixError(ZeroBoundsError, ValueError):
    """A matrix entry is infinite or NaN: on finite input, an intermediate overflowed."""


class BlockShapeMismatchError(ZeroBoundsError):
    """The block grid is not m-by-m with square same-size blocks."""


class ExponentOutOfRangeError(ZeroBoundsError):
    """The interpolation exponent must lie strictly between 0 and 1."""


class HypothesisViolatedError(ZeroBoundsError):
    """The input does not satisfy the hypothesis this formula requires."""


class NoConvergenceError(ZeroBoundsError):
    """Root iteration failed to converge; carries the best iterate found."""

    def __init__(self, message, best_roots=(), residuals=()):
        super().__init__(message)
        self.best_roots = tuple(best_roots)
        self.residuals = tuple(residuals)


class PolynomialParseError(ZeroBoundsError):
    """A coefficient string could not be parsed."""


class UnknownFixtureError(ZeroBoundsError):
    """No embedded fixture has the requested name."""
