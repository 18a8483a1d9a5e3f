"""Exception types shared across the package."""


class MotzkinParityError(Exception):
    """Base class for all errors raised by this package."""


class DivisorNotUnit(MotzkinParityError):
    """Series division needs a divisor with nonzero constant term."""


class NotUnitSquare(MotzkinParityError):
    """Series square root needs a radicand with constant term exactly 1."""


class OrderTooSmall(MotzkinParityError):
    """The series does not carry enough terms for the requested operation."""


class IndexBeyondOrder(MotzkinParityError):
    """Coefficient index at or beyond the series truncation order."""


class NotQuadratic(MotzkinParityError):
    """ODE conversion is implemented for equations of y-degree exactly 2."""


class DegenerateDiscriminant(MotzkinParityError):
    """The quadratic's discriminant vanishes identically."""


class AlreadyHomogeneous(MotzkinParityError):
    """Homogenization applies only to equations with a nonzero inhomogeneity."""


class LeadingCoeffVanishes(MotzkinParityError):
    """Extending a recurrence hit an index where the leading polynomial vanishes."""

    def __init__(self, n: int) -> None:
        super().__init__(f"leading coefficient vanishes at n={n}")
        self.n = n


class InsufficientInitialTerms(MotzkinParityError):
    """Too few initial values to start extending the recurrence."""


class InsufficientTerms(MotzkinParityError):
    """Too little data for the requested guess."""


class InternalInconsistency(MotzkinParityError):
    """A conversion failed its own re-verification; this indicates a bug."""
