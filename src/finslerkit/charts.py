"""Locally autoparallel charts: bundle coordinates adapted to a connection.

Both chart kinds are centered on a manifold point x0 and built from the
time-one exponential map of the horizontal autoparallel flow:

* the *extended* chart sends (xt, yt) to EXP(xt, yt) directly, moving
  position and direction labels independently on the bundle;
* the *standard* chart keeps the extended x-part and derives its fiber
  coordinate through the position Jacobian, y = (dx/dxt) yt, mimicking a
  manifold-induced change of coordinates.  It is only defined for
  connections declared homogeneous and fiber-symmetric.

The ODE-based forward map is authoritative everywhere.  Every derivative of
the integrated map (Newton matrices, the standard kind's fiber blocks, the
xt-Hessian of the Lagrangian and its fiber derivative) is read from one
Taylor-mode flow of the order it needs (:func:`dynamics.exp_map_jets`), exact
to integrator accuracy.  The truncated power series around xt = 0 serve as
diagnostics and as Newton seeds for inversion — they are never the answer.
The series, the Jacobian series and the Newton seed read the Taylor
coefficients of the chart image at xt = 0, where :func:`dynamics.exp_map_jets`
takes them from its exact degree recursion: the extended chart is EXP itself,
and the standard fiber is (dx/dxt) yt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import TangentBundlePoint, bundle_point
from .connection import GeneralConnection
from .dynamics import (
    TIGHT,
    _write_csv,
    exp_map,
    exp_map_jets,
    exp_map_with_jacobian,
)
from .errors import (
    ExcludedSetEntered,
    FinslerKitError,
    NewtonDiverged,
    NonFiniteField,
    OrderUnsupported,
    OutsideTrustRegion,
    SingularJacobian,
)
from .jets import JetSpace, TaylorJet

JACOBIAN_CONDITION_LIMIT = 1e12

# damped Newton of the inverse map
_NEWTON_TOLERANCE = 1e-10
_MAX_ITERATIONS = 50
_MAX_BACKTRACKS = 25
_DAMPING = 0.5  # step shrink factor while the residual fails to drop


@dataclass
class ChartJacobianSeries:
    """Power-series blocks of the chart map's Jacobian around xt = 0.

    Zeroth-order blocks are (n, n); the ``*_lin`` tensors are (n, n, n) with
    the last index labelling the xt-coordinate the coefficient multiplies:
    block(xt) = block0 + block_lin[..., c] xt^c + O(xt^2).
    """

    kind: str
    dx_dxt: np.ndarray
    dx_dyt: np.ndarray
    dy_dxt: np.ndarray
    dy_dyt: np.ndarray
    dx_dxt_lin: np.ndarray
    dx_dyt_lin: np.ndarray
    dy_dxt_lin: np.ndarray
    dy_dyt_lin: np.ndarray


@dataclass
class ChartLagrangian:
    value: float
    grad_xt: np.ndarray
    hess_xt: np.ndarray


@dataclass
class AutoparallelChart:
    """A chart around x0 in which the connection coefficients vanish on the
    center fiber.

    ``kind`` selects extended or standard coordinates; the standard kind
    refuses connections not declared homogeneous and symmetric (spot-check
    declarations with ``GeneralConnection.validate_flags`` when in doubt).
    ``radius_hint`` is the trust radius for forward evaluation, not a
    guaranteed injectivity radius.  Every flow runs at the tight tolerances
    ``dynamics.TIGHT``.
    """

    connection: GeneralConnection
    base: np.ndarray
    kind: str = "extended"
    radius_hint: float = 0.5

    def __post_init__(self):
        if self.kind not in ("extended", "standard"):
            raise ValueError(f"unknown chart kind {self.kind!r}")
        self.base = np.asarray(self.base, dtype=float)
        if self.kind == "standard" and not (
            self.connection.homogeneous and self.connection.symmetric
        ):
            raise FinslerKitError(
                "standard charts require a connection declared homogeneous "
                "and symmetric; the fiber coordinate y = (dx/dxt) yt is not "
                "center-adapted otherwise"
            )

    # -- forward map -----------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.connection.dimension

    def _check_trust(self, xt: np.ndarray):
        r = float(np.linalg.norm(xt))
        if r > self.radius_hint:
            raise OutsideTrustRegion(
                f"|xt| = {r:.4g} exceeds the chart trust radius {self.radius_hint:.4g}"
            )

    def _image_jets(self, xt, yt, space: JetSpace, u_seed: int, v_seed: int | None = None):
        """The image of (xt + du, yt + dv) as jets, seeded as in
        :func:`exp_map_jets`: x in ``space``, as is y for the extended kind.
        The standard kind's fiber y = (dx/dxt) yt is valid one order lower, so
        it lies in the space of that order, the prefix of ``space``."""
        n = self.dimension
        x, y = exp_map_jets(
            self.connection, self.base, xt, yt, space, u_seed, v_seed, TIGHT
        )
        xs = [TaylorJet(space, c) for c in x]
        if self.kind == "extended":
            return xs, [TaylorJet(space, c) for c in y]
        low = JetSpace.get(space.nvars, space.order - 1, space.capped, space.cap)
        # dx[i][a] = dx^a/dxt^i, with yt itself a jet when it is seeded
        dx = [space.derivative(x, u_seed + i)[:, : low.size] for i in range(n)]
        fiber = yt if v_seed is None else [low.variable(v_seed + i, yt[i]) for i in range(n)]
        ys = [sum(TaylorJet(low, dx[i][a]) * fiber[i] for i in range(n)) for a in range(n)]
        return xs, ys

    def to_manifold(self, xt, yt) -> TangentBundlePoint:
        """Map chart coordinates to the bundle point they label."""
        xt = np.asarray(xt, dtype=float)
        yt = np.asarray(yt, dtype=float)
        self._check_trust(xt)
        if self.kind == "extended":
            return exp_map(self.connection, self.base, xt, yt, TIGHT)
        end, dxdu, _, _, _ = exp_map_with_jacobian(
            self.connection, self.base, xt, yt, wrt="u", controls=TIGHT
        )
        return bundle_point(end.x, dxdu @ yt)

    # -- inverse map -----------------------------------------------------------

    def _newton_seed(self, p: TangentBundlePoint) -> np.ndarray:
        """Second-order inverse of EXP's Taylor polynomial at (x0, y): the
        Newton starting point."""
        n = self.dimension
        # EXP(du, y + dv) = F0 + A s + Q(s) in the seeds s = (dv, du); the
        # target is F0 + (p.x - x0, 0), so s = A^-1 w - A^-1 Q(A^-1 w)
        space = JetSpace.get(2 * n, 2, n, 1)
        x, y = exp_map_jets(self.connection, self.base, np.zeros(n), p.y, space, n, 0)
        image = np.concatenate([x, y])
        linear = image[:, space.partial_slots(range(2 * n))[0]]
        s = np.linalg.solve(linear, np.concatenate([p.x - self.base, np.zeros(n)]))
        s -= np.linalg.solve(linear, space.terms(image, s, 2))
        return np.concatenate([s[n:], p.y + s[:n]])

    def _forward_with_update_matrix(self, z: np.ndarray):
        """Forward state at z = (xt, yt) plus a Newton update matrix.

        For the extended kind the matrix is the exact flow Jacobian (of the
        order-1 Taylor-mode flow); for the standard kind the fiber rows are
        borrowed from the extended map, which matches the true Jacobian to
        O(|xt|) — a quasi-Newton update that stays contractive inside the
        trust region.
        """
        n = self.dimension
        end, dxdu, dydu, dxdv, dydv = exp_map_with_jacobian(
            self.connection, self.base, z[:n], z[n:], wrt="uv", controls=TIGHT
        )
        if self.kind == "extended":
            state = end.as_state()
        else:
            state = np.concatenate([end.x, dxdu @ z[n:]])
        return state, np.block([[dxdu, dxdv], [dydu, dydv]])

    def from_manifold(self, p: TangentBundlePoint):
        """Invert the forward map by damped Newton from the series seed."""
        n = self.dimension
        target = p.as_state()
        z = self._newton_seed(p)

        state, update = self._forward_with_update_matrix(z)
        res = np.inf
        for _ in range(_MAX_ITERATIONS):
            F = state - target
            res = float(np.abs(F).max())
            if res <= _NEWTON_TOLERANCE:
                return z[:n].copy(), z[n:].copy()
            try:
                step = np.linalg.solve(update, -F)
            except np.linalg.LinAlgError as err:
                raise NewtonDiverged(
                    f"singular Newton update: {err}", last_iterate=z, residual=res
                ) from err
            lam = 1.0
            for _ in range(_MAX_BACKTRACKS):
                # a trial carries its Newton matrix, so the accepted one seeds
                # the next iteration without a second integration
                z_try = z + lam * step
                try:  # a trial outside the trust radius is rejected unflowed
                    self._check_trust(z_try[:n])
                    trial = self._forward_with_update_matrix(z_try)
                except (OutsideTrustRegion, ExcludedSetEntered):
                    trial = None
                if trial is not None and float(np.abs(trial[0] - target).max()) < res:
                    z = z_try
                    state, update = trial
                    break
                lam *= _DAMPING
            else:
                raise NewtonDiverged(
                    "damped Newton made no progress", last_iterate=z, residual=res
                )
        raise NewtonDiverged(
            f"no convergence within {_MAX_ITERATIONS} iterations",
            last_iterate=z,
            residual=res,
        )

    # -- truncated series ------------------------------------------------------

    def series_forward(self, xt, yt, order: int) -> TangentBundlePoint:
        """Power-series forward map around xt = 0, truncated at ``order``.

        The x-part carries terms through the requested order (1, 2 or 3) and
        the y-part through order min(order, 2), which is where the two chart
        kinds first differ.  Both are Taylor polynomials of the chart image's
        jets at (0, yt): EXP's for the extended kind, (dx/dxt) yt for the
        standard kind.
        """
        if order not in (1, 2, 3):
            raise OrderUnsupported(f"series order must be 1, 2 or 3, got {order}")
        xt = np.asarray(xt, dtype=float)
        yt = np.asarray(yt, dtype=float)
        n = self.dimension
        y_order = min(order, 2)
        # the standard kind's fiber costs one order of x
        space = JetSpace.get(n, max(order, y_order + (self.kind == "standard")))
        xs, ys = self._image_jets(np.zeros(n), yt, space, 0)
        x = space.terms(np.array([j.c for j in xs]), xt, range(order + 1))
        y = ys[0].space.terms(np.array([j.c for j in ys]), xt, range(y_order + 1))
        return bundle_point(x, y)

    def jacobian_series(self, yt) -> ChartJacobianSeries:
        """Zeroth- and first-order blocks of the chart Jacobian at xt = 0,
        read from the chart image's jets at (0, yt)."""
        yt = np.asarray(yt, dtype=float)
        n = self.dimension
        # seeds (dyt, dxt); no block is second order in yt, so its degree is
        # capped at 1, and the standard kind's fiber costs one order of x
        space = JetSpace.get(2 * n, 2 if self.kind == "extended" else 3, n, 1)
        xs, ys = self._image_jets(np.zeros(n), yt, space, n, 0)
        xts, yts = range(n, 2 * n), range(n)
        blocks = {}
        for name, jets in (("x", xs), ("y", ys)):
            for wrt, axis in (("xt", xts), ("yt", yts)):
                blocks[f"d{name}_d{wrt}"] = np.array([j.partials(axis) for j in jets])
                blocks[f"d{name}_d{wrt}_lin"] = np.array([j.partials(axis, xts) for j in jets])
        return ChartJacobianSeries(kind=self.kind, **blocks)

    # -- geometry in chart coordinates ------------------------------------------

    def connection_in_chart(self, xt, yt) -> np.ndarray:
        """Connection coefficients the chart sees at (xt, yt).

        The connection one-form is pushed through the full bundle coordinate
        change: with forward blocks (Xx, Xy, Yx, Yy) of (x, y) w.r.t.
        (xt, yt), the coefficients are the dxt-part of the transformed form,
            Ntilde = (inverse Jacobian, yt-y block) @ (Yx + N(image) Xx).
        All blocks come from the integrated map (an order-1 flow for the
        extended kind, order 2 for the standard kind, whose fiber coordinate
        is itself a derivative), never from the center identities being
        verified.
        """
        xt = np.asarray(xt, dtype=float)
        yt = np.asarray(yt, dtype=float)
        self._check_trust(xt)
        n = self.dimension
        space = JetSpace.get(2 * n, 1 if self.kind == "extended" else 2)
        xs, ys = self._image_jets(xt, yt, space, u_seed=0, v_seed=n)
        img = bundle_point([j.value for j in xs], [j.value for j in ys])
        forward = np.array([j.partials(range(2 * n)) for j in xs + ys])
        cond = float(np.linalg.cond(forward))
        if not np.isfinite(cond) or cond > JACOBIAN_CONDITION_LIMIT:
            raise SingularJacobian(
                f"chart Jacobian condition number {cond:.3e} at |xt| = "
                f"{float(np.linalg.norm(xt)):.4g}"
            )
        inverse = np.linalg.inv(forward)
        n_img = self.connection.coefficients(img)
        return inverse[n:, n:] @ (forward[n:, :n] + n_img @ forward[:n, :n])

    def _require_lagrangian(self):
        if self.connection.lagrangian is None:
            raise FinslerKitError(
                "this chart operation needs a Lagrangian-backed connection"
            )
        return self.connection.lagrangian

    def _lagrangian_jet(self, yt: np.ndarray, space: JetSpace, u_seed: int, v_seed=None):
        """L at the chart image of (du, yt + dv) as a jet in the space of the
        image's fiber (see :meth:`_image_jets`)."""
        xs, ys = self._image_jets(np.zeros(self.dimension), yt, space, u_seed, v_seed)
        low = ys[0].space
        jet = self._require_lagrangian()([TaylorJet(low, j.c[: low.size]) for j in xs], ys)
        if not np.isfinite(jet.c).all():
            raise NonFiniteField(
                f"Lagrangian jet in the chart is not finite at {bundle_point(self.base, yt)}"
            )
        return jet

    def _xt_jet(self, yt: np.ndarray):
        """L at the chart image of (dxt, yt), valid to order 2 in dxt."""
        # the standard kind's fiber coordinate costs one order of x
        space = JetSpace.get(self.dimension, 2 if self.kind == "extended" else 3)
        return self._lagrangian_jet(yt, space, 0)

    def lagrangian_in_chart(self, yt) -> ChartLagrangian:
        """Value, xt-gradient and xt-Hessian of the Lagrangian at xt = 0."""
        yt = np.asarray(yt, dtype=float)
        model = self._require_lagrangian()
        xts = range(self.dimension)
        value = model.evaluate(bundle_point(self.base, yt))
        jet = self._xt_jet(yt)
        return ChartLagrangian(
            value=value, grad_xt=jet.partials(xts), hess_xt=jet.partials(xts, xts)
        )

    def curvature_in_chart(self, yt) -> np.ndarray:
        """Curvature tensor at the chart center from in-chart data only.

        Standard kind only: the xt-Hessian of the induced Lagrangian is
        contracted with the inverse fiber metric and antisymmetrized after a
        fiber derivative, R[a, b, c] = (dW[a, b, c] - dW[a, c, b]) / 2 with
        W the contracted Hessian.  No connection coefficients enter.  The
        Hessian and its fiber derivative come from one flow in the seeds
        (dyt, dxt), order 4 with dyt-degree <= 1, which holds the Lagrangian
        jet to order 3.
        """
        if self.kind != "standard":
            raise FinslerKitError("curvature reconstruction needs the standard kind")
        yt = np.asarray(yt, dtype=float)
        model = self._require_lagrangian()
        n = self.dimension
        # seeds (dyt, dxt): variables 0..n-1, then n..2n-1
        jet = self._lagrangian_jet(yt, JetSpace.get(2 * n, 4, n, 1), n, 0)
        yts, xts = range(n), range(n, 2 * n)
        hess = jet.partials(xts, xts)
        dhess = jet.partials(xts, xts, yts)
        p = bundle_point(self.base, yt)
        g = model.l_metric(p)
        fibers = range(n, 2 * n)  # the y-variables of L's own (x, y) jet
        dg = 0.5 * model.taylor(p, 3).partials(fibers, fibers, fibers)
        # W = g^{-1} H, so d_c W = g^{-1} (d_c H - d_c g W)
        w = np.linalg.solve(g, hess)
        rhs = dhess - np.einsum("amc,mb->abc", dg, w)
        dw = np.linalg.solve(g, rhs.reshape(n, n * n)).reshape(n, n, n)
        return 0.5 * (dw - np.transpose(dw, (0, 2, 1)))

    # -- audit / export ----------------------------------------------------------

    def record(self, xt, yt) -> dict:
        """Round-trip audit record for one chart evaluation."""
        xt = np.asarray(xt, dtype=float)
        yt = np.asarray(yt, dtype=float)
        p = self.to_manifold(xt, yt)
        back_xt, back_yt = self.from_manifold(p)
        return {
            "kind": self.kind,
            "base": [float(v) for v in self.base],
            "x_tilde": [float(v) for v in xt],
            "y_tilde": [float(v) for v in yt],
            "x": [float(v) for v in p.x],
            "y": [float(v) for v in p.y],
            "residuals": {
                "round_trip_x_tilde": float(np.abs(back_xt - xt).max()),
                "round_trip_y_tilde": float(np.abs(back_yt - yt).max()),
            },
        }


def export_grid_csv(chart: AutoparallelChart, xt_rows, yt, target) -> None:
    """Evaluate the chart on a list of xt points and write a CSV table."""
    yt = np.asarray(yt, dtype=float)
    n = chart.dimension
    header = (
        [f"xt{i + 1}" for i in range(n)]
        + [f"x{i + 1}" for i in range(n)]
        + [f"y{i + 1}" for i in range(n)]
    )

    def rows():
        for xt in xt_rows:
            xt = np.asarray(xt, dtype=float)
            p = chart.to_manifold(xt, yt)
            yield np.concatenate([xt, p.x, p.y])

    _write_csv(target, header, rows())
