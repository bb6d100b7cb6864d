"""Embedded Dormand-Prince 5(4) integrator with continuous output.

Geometry-agnostic: integrates dz/dt = f(t, z) with PI-free standard step
control, records every accepted segment's quartic interpolant, and calls an
optional guard after each accepted step so callers can police excluded
regions of their state space.  Tolerances default to the tight values the
rest of the package assumes (rtol 1e-10, atol 1e-12).

Coefficients: Dormand & Prince (1980) pair with its standard quartic
interpolant, stored in monomial form (continuous order 4, C^1 at the nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FinslerKitError, NonFiniteField, StepSizeUnderflow

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Quartic dense-output weights: u(t0 + s*h) = z0 + h * sum_i k_i * P_i(s) with
# P_i(s) = P[i,0] s + P[i,1] s^2 + P[i,2] s^3 + P[i,3] s^4.  The combination is
# C^1 at the nodes (u'(0) = h k1, u'(1) = h k7) and locally O(h^5) accurate.
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


@dataclass
class OdeSolution:
    """Accepted-step mesh plus piecewise-quartic continuous extension."""

    ts: np.ndarray
    states: np.ndarray
    segments: list  # (t_left, h, rcont[5, m]) per accepted step
    naccepted: int = 0
    nrejected: int = 0
    nfev: int = 0
    max_error_norm: float = 0.0

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def state_end(self) -> np.ndarray:
        return self.states[-1]

    def _segment(self, t: float):
        if not self.segments:
            raise FinslerKitError("empty solution has no interpolant")
        nseg = len(self.segments)
        lefts = self.ts[:nseg]  # ts[k] is the left end of segment k
        if self.ts[-1] < self.ts[0]:  # backward-time run
            lefts = -lefts
            t = -t
        k = int(np.searchsorted(lefts, t, side="right")) - 1
        return self.segments[min(max(k, 0), nseg - 1)]

    def __call__(self, t: float) -> np.ndarray:
        t0, h, r = self._segment(float(t))
        s = (float(t) - t0) / h
        return r[0] + s * (r[1] + s * (r[2] + s * (r[3] + s * r[4])))

    def derivative(self, t: float) -> np.ndarray:
        """Time derivative of the continuous extension."""
        t0, h, r = self._segment(float(t))
        s = (float(t) - t0) / h
        return (r[1] + s * (2.0 * r[2] + s * (3.0 * r[3] + 4.0 * s * r[4]))) / h


def _initial_step(f, t0, z0, f0, direction, rtol, atol):
    sc = atol + rtol * np.abs(z0)
    d0 = np.sqrt(np.mean((z0 / sc) ** 2))
    d1 = np.sqrt(np.mean((f0 / sc) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    z1 = z0 + h0 * direction * f0
    f1 = f(t0 + h0 * direction, z1)
    d2 = np.sqrt(np.mean(((f1 - f0) / sc) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def solve_ode(
    f,
    t0: float,
    z0,
    t_end: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    guard=None,
    max_steps: int = 100_000,
    first_step: float | None = None,
) -> OdeSolution:
    """Integrate dz/dt = f(t, z) from t0 to t_end.

    ``guard(t, z)`` runs after every accepted step and may raise to abort.
    Raises :class:`NonFiniteField` as soon as ``f`` returns a NaN or an
    infinity, and :class:`StepSizeUnderflow` when error control pushes the
    step below the round-off floor.
    """
    z0 = np.asarray(z0, dtype=float)
    m = z0.size
    span = t_end - t0
    if span == 0.0:
        sol = OdeSolution(np.array([t0]), z0[None, :].copy(), [])
        sol.segments.append((t0, 1.0, np.vstack([z0, np.zeros((4, m))])))
        return sol
    direction = 1.0 if span > 0 else -1.0

    nfev = 0

    def call(t, z):
        nonlocal nfev
        nfev += 1
        out = np.asarray(f(t, z), dtype=float)
        if not np.isfinite(out).all():
            raise NonFiniteField(f"right-hand side is not finite at t = {t:.6g}, state {z}")
        return out

    k = np.empty((7, m))
    k[0] = call(t0, z0)
    h = first_step if first_step is not None else _initial_step(
        call, t0, z0, k[0], direction, rtol, atol
    )
    h = min(abs(h), abs(span))

    ts = [t0]
    states = [z0.copy()]
    segments = []
    t, z = t0, z0.copy()
    naccepted = nrejected = 0
    max_err = 0.0
    just_rejected = False

    for _ in range(max_steps):
        if (t - t_end) * direction >= 0.0:
            break
        h = min(h, abs(t_end - t))
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(
                f"step size {h:.3e} underflowed at t = {t:.6g}"
            )
        hs = h * direction

        for i in range(1, 7):
            zi = z + hs * (_A[i][: i] @ k[:i])
            k[i] = call(t + _C[i] * hs, zi)
        z_new = z + hs * (_B @ k)  # equals the i=6 stage state (FSAL)
        err_vec = hs * (_E @ k)
        sc = atol + rtol * np.maximum(np.abs(z), np.abs(z_new))
        err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))

        if err <= 1.0:
            # dense-output coefficients for the accepted segment
            rcont = np.empty((5, m))
            rcont[0] = z
            rcont[1:] = hs * (_P.T @ k)
            segments.append((t, hs, rcont))

            t = t + hs
            z = z_new
            ts.append(t)
            states.append(z.copy())
            naccepted += 1
            max_err = max(max_err, err)
            k[0] = k[6]  # FSAL
            if guard is not None:
                guard(t, z)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            if just_rejected:
                factor = min(1.0, factor)
            h *= factor
            just_rejected = False
        else:
            nrejected += 1
            just_rejected = True
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
    else:
        raise FinslerKitError(f"integration exceeded {max_steps} steps")

    return OdeSolution(
        np.array(ts),
        np.array(states),
        segments,
        naccepted=naccepted,
        nrejected=nrejected,
        nfev=nfev,
        max_error_norm=max_err,
    )
