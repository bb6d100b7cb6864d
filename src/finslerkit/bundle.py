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
        return state_text(self.as_state(), 0)

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


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, as ``np.isfinite(a).all()``
    says, in one BLAS call when it is: a sum of squares is finite only if
    every entry is.  ``np.vdot`` checks no floating-point flags, so a square
    that overflows warns of nothing; ``np.isfinite`` then decides."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def state_text(xy, lane: int) -> str:
    """The bundle point of the state ``xy`` (x, then y, in one array), or of
    row ``lane`` of a stack of states (one per row), as
    :class:`TangentBundlePoint` prints it; errors format it only when raised."""
    xy = np.asarray(xy)
    if xy.ndim > 1:
        xy = xy[lane]
    n = len(xy) // 2
    return f"x = {xy[:n].tolist()}, y = {xy[n:].tolist()}"


def check_state(xy) -> None:
    """Raise :class:`NonFiniteField` if the state ``xy`` (x, then y) is not
    finite and :class:`NearZeroDirection` if y is numerically on the zero
    section; both name the point.  A stack of states (one per row) is checked
    row by row, and an error names the first failing row."""
    if not all_finite(xy):
        raise NonFiniteField(
            "tangent bundle point has non-finite coordinates: "
            f"{state_text(xy, np.argmax(~np.isfinite(xy).all(axis=-1)))}"
        )
    y = xy[..., xy.shape[-1] // 2 :]
    # np.linalg.norm's formula (a BLAS dot) without its overhead; matmul of a
    # row by a column is the same dot, row by row
    norms = [math.sqrt(y.dot(y))] if y.ndim == 1 else np.sqrt(y[:, None] @ y[..., None]).ravel()
    for lane, norm in enumerate(norms):
        if norm < ZERO_DIRECTION_GUARD:
            raise NearZeroDirection(
                f"fiber direction norm {norm:.3e} below guard {ZERO_DIRECTION_GUARD:.1e}"
                f" at {state_text(xy, lane)}"
            )


def bundle_point(x, y) -> TangentBundlePoint:
    """Convenience constructor accepting any array-likes."""
    return TangentBundlePoint(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
