"""Exception types shared across the package.

Every error raised on a numerical-contract violation derives from
:class:`FinslerKitError`, so callers can catch one base class at CLI level.
"""


class FinslerKitError(Exception):
    """Base class for all package-specific failures."""


class NonFiniteField(FinslerKitError):
    """A field evaluation or one of its derivatives is NaN or infinite."""


class OrderUnsupported(FinslerKitError):
    """A derivative order outside the supported range was requested."""


class ExcludedSetEntered(FinslerKitError):
    """A point of the bundle's excluded set: the zero section or the points
    where the L-metric degenerates.

    The connection raises one of the two subclasses below at such a point.  A
    flow whose trial stage meets one rejects that step; a flow that starts or
    lands on one raises it.
    """


class NearZeroDirection(ExcludedSetEntered):
    """A fiber direction is too close to the zero section to be usable."""


class NearDegenerateMetric(ExcludedSetEntered):
    """The fiber Hessian of the Lagrangian is numerically singular."""


class StepSizeUnderflow(FinslerKitError):
    """The adaptive integrator cannot shrink the step any further."""


class StepBudgetExceeded(FinslerKitError):
    """The adaptive integrator spent its step budget before the end time;
    carries the time ``t`` it reached and the step ``h`` it would try next."""

    def __init__(self, message, t, h):
        super().__init__(message)
        self.t = t
        self.h = h


class NewtonDiverged(FinslerKitError):
    """Damped Newton iteration failed to converge within its budget.

    Carries the last iterate and residual norm for post-mortem inspection.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class OutsideTrustRegion(FinslerKitError):
    """A chart was asked to evaluate beyond its stated coordinate radius."""


class SingularJacobian(FinslerKitError):
    """A coordinate-change Jacobian is numerically non-invertible."""


class ExpressionError(FinslerKitError):
    """A coefficient expression failed to tokenize, parse, or evaluate."""


class ModelFormatError(FinslerKitError):
    """A model document is malformed or references unknown fields."""
