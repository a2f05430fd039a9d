"""Exception types shared across the package."""


class SpinFidError(Exception):
    """Base class for all package-specific errors."""


class InvalidParametersError(SpinFidError, ValueError):
    """Physical or configuration parameters violate their constraints."""


class IntegrationBlowupError(SpinFidError, FloatingPointError):
    """A stochastic integration step produced a non-finite state."""


class NumericalDegeneracyError(SpinFidError, ArithmeticError):
    """A filter update became numerically degenerate (e.g. S <= 0, Cholesky
    failure beyond the jitter escalation limit)."""


class ExclusionLimitError(SpinFidError, RuntimeError):
    """More Monte-Carlo runs of a sweep failed than it may exclude."""


class MapBoundaryError(SpinFidError, RuntimeError):
    """The MAP search ended on the edge of its bracket; the prior is too
    narrow or the data is inconsistent with it."""
