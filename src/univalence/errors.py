"""Exception hierarchy shared by all modules."""


class UnivalenceError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(UnivalenceError):
    """A function or h-function specification violates its invariants."""


class InvalidPlan(UnivalenceError):
    """A sampling plan violates its invariants."""


class OutsideDomain(UnivalenceError):
    """Evaluation point lies in the closed unit disk."""


class CriticalPoint(UnivalenceError):
    """f'(z) = 0: local univalence fails at the point."""


class CriticalPointInRegion(UnivalenceError):
    """A sampled scan hit a critical point; carries the offending point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class HVanishes(UnivalenceError):
    """h(z) = 0 at an evaluation point."""


class EvaluationFailure(UnivalenceError):
    """A function could not be evaluated on the requested samples."""


class DenominatorVanishes(UnivalenceError):
    """The Loewner chain quotient is singular at the requested (z, t)."""


class ContourThroughSingularity(UnivalenceError):
    """A discrete contour integral hit a singular chain value."""


class PointTooCloseToContour(UnivalenceError):
    """Winding number undefined: the point sits (numerically) on the contour."""


class OpenContour(UnivalenceError):
    """Winding number requested for a contour that does not close."""


class UsageError(UnivalenceError):
    """Malformed CLI arguments."""
