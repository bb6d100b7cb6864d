"""Points of the tangent bundle and the numerical guards applied to them."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NearZeroDirection, NonFiniteField

# Fiber directions with |y| below this are treated as the zero section.
ZERO_DIRECTION_GUARD = 1e-12

# Condition number of the fiber Hessian above which a point counts as
# (numerically) part of the degenerate set.
DEGENERACY_CONDITION_LIMIT = 1e8


@dataclass
class TangentBundlePoint:
    """A point (x, y) of TM: manifold coordinates x and fiber coordinates y."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise NonFiniteField("tangent bundle point has non-finite coordinates")

    def __str__(self):
        return state_text(self.as_state())

    @property
    def dim(self) -> int:
        return self.x.size

    def require_nonzero_direction(self):
        """Raise :class:`NearZeroDirection` if y is numerically on the zero section."""
        check_state(self.as_state())
        return self

    def as_state(self) -> np.ndarray:
        """Concatenate (x, y) into a flat state vector."""
        return np.concatenate([self.x, self.y])


def state_text(xy) -> str:
    """The bundle point of the state ``xy`` (x, then y, in one array) as
    :class:`TangentBundlePoint` prints it; errors format it only when raised."""
    n = len(xy) // 2
    return f"x = {xy[:n].tolist()}, y = {xy[n:].tolist()}"


def check_state(xy) -> None:
    """Raise :class:`NonFiniteField` if the state ``xy`` (x, then y) is not
    finite and :class:`NearZeroDirection` if y is numerically on the zero
    section; both name the point."""
    if not np.isfinite(xy).all():
        raise NonFiniteField(f"tangent bundle point has non-finite coordinates: {state_text(xy)}")
    y = xy[len(xy) // 2 :]
    norm = math.sqrt(y.dot(y))  # np.linalg.norm's formula, without its overhead
    if norm < ZERO_DIRECTION_GUARD:
        raise NearZeroDirection(
            f"fiber direction norm {norm:.3e} below guard {ZERO_DIRECTION_GUARD:.1e}"
            f" at {state_text(xy)}"
        )


def bundle_point(x, y) -> TangentBundlePoint:
    """Convenience constructor accepting any array-likes."""
    return TangentBundlePoint(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
