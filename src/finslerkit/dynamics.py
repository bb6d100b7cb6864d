"""Autoparallel curves, horizontal transport, and the bundle exponential map.

Two flavours of curve are integrated:

* the *canonical lift* x'' + N(x, x') x' = 0 of Def-1 type, whose state is
  (x, u = x');
* the *horizontal autoparallel* pair
      y' = -N(x, y) x',      x''^a = -(d/dy^c N^a_b)(x, y) x'^b x'^c,
  whose state is (x, y, u) and whose time-one map is the exponential map
  EXP(u, v) = (x(1), y(1)) anchored at (x0, v).

Flow derivatives come from Taylor-mode flows: the state (x, y, u) is carried
as truncated Taylor jets in seed variables (directions in u and v) through the
same DOP853 steps, every jet slot inside the error norm, so derivatives of the
time-one map of any order come out exact to integrator accuracy (internal
differentiation, Hairer, Norsett & Wanner, *Solving ODEs I*; truncated Taylor
arithmetic, Griewank & Walther, *Evaluating Derivatives*).  The right-hand
side composes N's (x, y)-jet at the primal point with the state's deviation
jets; no finite differencing of the flow and no hand-built variational matrix.
At u = 0 the jets need no integration: EXP(s du, v) is the time-s point of
the flow, so the du-degree-k coefficients follow from the lower ones through
the same right-hand side, one sweep per degree (:func:`_rest_jets`).  That
recursion is the one source of EXP's Taylor coefficients at zero velocity,
which the chart series, the Jacobian series and the Newton seed read.  The
flow at rest never leaves its base point, so its sweeps compose one
evaluation of N's jet there; every other flow evaluates N at each stage.

A flow stage is one kernel call.  Each field takes its connection's
:class:`~finslerkit.connection.ConnectionKernel` of the order it reads once,
when the field is built, and every stage calls it on the (x, y) slice of the
stage's state: no stage builds a bundle point or an evaluation object, or
looks up a jet space, a tape or a table.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from .bundle import ZERO_DIRECTION_GUARD, TangentBundlePoint, bundle_point
from .connection import GeneralConnection
from .errors import NonFiniteField
from .integrate import DEFAULT_ATOL, DEFAULT_RTOL, OdeSolution, solve_ode
from .jets import JetSpace, compose


@dataclass(frozen=True)
class IntegrationControls:
    """Tolerances of one flow.

    The first trial step is not a setting: the exponential-map flows
    (``exp_map``, ``exp_map_jets`` and everything built on them) try the unit
    interval, and flows to an arbitrary ``t_end`` start from Hairer's
    starting-step estimate.
    """

    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL


# The tight tolerances of chart flows, verify's probes and the geodesic trace.
TIGHT = IntegrationControls(rtol=1e-12, atol=1e-14)


@dataclass
class TrajectoryDiagnostics:
    """Counts of one flow, read from its solution when asked, so that
    ``field_evals`` includes the dense-output stages of later queries.
    ``connection`` is the horizontal autoparallel's, None for the canonical
    lift, which has no horizontality residual."""

    solution: OdeSolution
    connection: GeneralConnection | None

    @functools.cached_property
    def max_horizontality_residual(self) -> float | None:
        """The largest horizontality residual |y' + N(x, y) x'|, scaled by
        1 + |N x'|, of the continuous extension at segment midpoints.  The
        first read measures it and builds every segment's interpolant, whose
        dense stages ``field_evals`` counts from then on."""
        conn, sol = self.connection, self.solution
        if conn is None:
            return None
        n = conn.dimension
        worst = 0.0
        for seg in sol.segments:
            tm = seg.t0 + 0.5 * seg.h
            z, dz = sol(tm), sol.derivative(tm)
            if float(np.linalg.norm(z[n : 2 * n])) < ZERO_DIRECTION_GUARD:
                continue
            transport = conn.coefficients(bundle_point(z[:n], z[n : 2 * n])) @ dz[:n]
            resid = float(np.abs(dz[n : 2 * n] + transport).max())
            worst = max(worst, resid / (1.0 + float(np.abs(transport).max())))
        return worst

    @property
    def accepted(self) -> int:
        return self.solution.naccepted

    @property
    def rejected(self) -> int:
        return self.solution.nrejected

    @property
    def field_evals(self) -> int:
        return self.solution.nfev


@dataclass
class Trajectory:
    """Sampled integral curve on TM with dense access to the full state."""

    dimension: int
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    diagnostics: TrajectoryDiagnostics
    solution: OdeSolution

    def point(self, index: int) -> TangentBundlePoint:
        return bundle_point(self.xs[index], self.ys[index])

    def state(self, t: float) -> TangentBundlePoint:
        n = self.dimension
        z = self.solution(t)
        return bundle_point(z[:n], z[n : 2 * n])

    @property
    def endpoint(self) -> TangentBundlePoint:
        return self.point(len(self.ts) - 1)

    def to_csv(self, target) -> None:
        """Write samples as ``t, x1..xn, y1..yn`` rows to a path or handle."""
        n = self.dimension
        header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]
        _write_csv(target, header, np.column_stack([self.ts, self.xs, self.ys]))


def _write_csv(target, header, rows) -> None:
    """Write ``header`` and rows of floats at round-trip precision (repr) as
    CSV to a path or an open handle."""
    if not hasattr(target, "write"):
        with open(target, "w", newline="") as fh:
            _write_csv(fh, header, rows)
        return
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows([repr(float(v)) for v in row] for row in rows)


def integrate_autoparallel(
    conn: GeneralConnection,
    x0,
    u,
    t_end: float,
    controls: IntegrationControls | None = None,
) -> Trajectory:
    """Canonical-lift autoparallel x'' + N(x, x') x' = 0 on [0, t_end]."""
    n = conn.dimension
    kernel = conn.kernel(0)

    def rhs(t, z):
        v = z[n:]
        N = kernel(z)[:, :, 0]  # the state (x, v) is the bundle point
        return np.concatenate([v, -N @ v])

    z0 = np.concatenate([np.asarray(x0, float), np.asarray(u, float)])
    return _trajectory(rhs, z0, t_end, controls, n, None)


def _trajectory(rhs, z0, t_end: float, controls, n: int, connection) -> Trajectory:
    """``solve_ode`` on [0, t_end] from Hairer's starting-step estimate, its
    samples the bundle points (x, y) that open the state; ``connection`` as
    in :class:`TrajectoryDiagnostics`."""
    controls = controls or IntegrationControls()
    sol = solve_ode(rhs, 0.0, z0, t_end, rtol=controls.rtol, atol=controls.atol)
    xs, ys = sol.states[:, :n], sol.states[:, n : 2 * n]
    return Trajectory(n, sol.ts, xs, ys, TrajectoryDiagnostics(sol, connection), sol)


def _horizontal_rhs(conn: GeneralConnection):
    """Horizontal field on the state (x, y, u): x' = u, y' = -N(x, y) u and
    u' = -dN/dy^c(x, y) u u^c.  The field takes the connection's order-1
    kernel once; a stage is one kernel call on the state's (x, y) slice, then
    N and dN/dy read from N's jet through the kernel's slot tables."""
    n = conn.dimension
    kernel = conn.kernel(1)

    def rhs(t, z):
        u = z[2 * n :]
        jet = kernel(z[: 2 * n])
        xdd = -np.einsum("abc,b,c->a", kernel.fiber_derivative(jet), u, u)
        return np.concatenate([u, -jet[:, :, 0] @ u, xdd])

    return rhs


def integrate_horizontal_autoparallel(
    conn: GeneralConnection,
    x0,
    u,
    v,
    t_end: float,
    controls: IntegrationControls | None = None,
) -> Trajectory:
    """Horizontal autoparallel with base velocity u and fiber anchor v.

    The trajectory carries state (x, y, u); the returned samples are the
    bundle points (x, y).  The diagnostics' horizontality residual is
    measured on its first read, so a caller that reads only the samples or
    the end point builds no interpolant.
    """
    z0 = np.concatenate([np.asarray(x0, float), np.asarray(v, float), np.asarray(u, float)])
    return _trajectory(_horizontal_rhs(conn), z0, t_end, controls, conn.dimension, conn)


def _solve_time_one(rhs, z0, controls: IntegrationControls | None):
    """``solve_ode`` on [0, 1] from a first trial step of the whole interval.

    EXP(s u, v) is the time-s point of the flow from (u, v), so the step a
    time-one flow needs is set by |u|, and error control shrinks a unit trial
    that is too long, or one whose stages leave the field's domain.
    """
    controls = controls or IntegrationControls()
    return solve_ode(rhs, 0.0, z0, 1.0, rtol=controls.rtol, atol=controls.atol, first_step=1.0)


def exp_map(
    conn: GeneralConnection,
    base,
    u,
    v,
    controls: IntegrationControls | None = None,
) -> TangentBundlePoint:
    """Time-one point of the horizontal autoparallel: EXP_base(u, v)."""
    n = conn.dimension
    z0 = np.concatenate(
        [np.asarray(base, float), np.asarray(v, float), np.asarray(u, float)]
    )
    z = _solve_time_one(_horizontal_rhs(conn), z0, controls).state_end
    # copies, so that a kept endpoint does not pin the flow's state history
    return bundle_point(z[:n].copy(), z[n : 2 * n].copy())


# -- Taylor-mode flow -----------------------------------------------------------


def _jet_rhs(conn: GeneralConnection, space: JetSpace, at_rest: bool):
    """Horizontal field on a state of jets in ``space``, laid out as
    (space.size, 3n): one row (x, y, u) per slot, the primal row first.

    y' = -N(x, y) u and u' = -dN/dy^c(x, y) u u^c are composed to the space
    order m from N's (x, y)-jet at the primal point.  That takes N to order
    m + 1; a primal at rest (u = 0, so the u jets start at order 1) needs one
    order less, and dN/dy at the primal point, so never less than order 1.
    The field takes the connection's kernel of that order once; a stage is
    one kernel call on the primal (x, y), the first 2n entries of ``z``, and
    the kernel's fiber stack of N and dN/dy, which the stage composes.  At
    rest the primal row never moves (x' = u = 0 and y' = -N 0 = 0 there), so
    the field evaluates N once, on its first call, and composes that stack
    at every later one.
    """
    n = conn.dimension
    m = space.order
    kernel = conn.kernel(max(1, m) if at_rest else m + 1)
    rest = None  # at rest: the one fiber stack every call composes

    def rhs(t, z):
        nonlocal rest
        state = z.reshape(space.size, 3 * n).T
        u = state[2 * n :]
        stack = rest if rest is not None else kernel.fiber_stack(kernel(z[: 2 * n]))
        if at_rest:
            rest = stack
        dev = state[: 2 * n].copy()
        dev[:, 0] = 0.0
        # N[a, b] and dN[a, b, c] = d/dy^c N^a_b along the state jets
        composed = compose(stack, kernel.space, dev, space)
        dN_u = space.product(composed[:, :, 1:], u[None, None]).sum(axis=2)
        # y' = -N u and u' = -(dN u) u in one product
        both = space.product(np.stack([composed[:, :, 0], dN_u]), u[None, None])
        ydot, udot = -both.sum(axis=2)
        return np.concatenate([u, ydot, udot]).T.ravel()

    return rhs


def exp_map_jets(
    conn: GeneralConnection,
    base,
    u,
    v,
    space: JetSpace,
    u_seed: int | None = None,
    v_seed: int | None = None,
    controls: IntegrationControls | None = None,
):
    """EXP(u + du, v + dv) as truncated Taylor jets in the seed variables.

    u's components are seeded as the variables ``u_seed`` .. ``u_seed + n - 1``
    of ``space`` and v's from ``v_seed``; ``None`` keeps that argument fixed.
    Returns (x, y), each an (n, space.size) array of jet coefficients of the
    time-one point, valid to ``space.order``.  At u = 0 the jets come from
    the degree recursion of :func:`_rest_jets`, exact to round-off, and
    ``controls`` is not used.
    """
    n = conn.dimension
    u = np.asarray(u, float)
    z0 = _seeded_state(space, base, u, v, u_seed, v_seed)
    if u.any():
        sol = _solve_time_one(_jet_rhs(conn, space, at_rest=False), z0.ravel(), controls)
        z = sol.state_end.reshape(z0.shape)
    else:
        z = _rest_jets(conn, space, z0, u_seed)
    state = z.T.copy()
    return state[:n], state[n : 2 * n]


def _seeded_state(space: JetSpace, base, u, v, u_seed, v_seed) -> np.ndarray:
    """The state (base, v + dv, u + du) as (space.size, 3n) jets, the seeds
    placed as in :func:`exp_map_jets`."""
    n = len(base)
    z0 = np.zeros((space.size, 3 * n))
    z0[0] = np.concatenate([np.asarray(base, float), np.asarray(v, float), u])
    for seed, col in ((v_seed, n), (u_seed, 2 * n)):
        if seed is not None:
            z0[space.partial_slots(range(seed, seed + n))[0], range(col, col + n)] = 1.0
    return z0


def _rest_jets(conn: GeneralConnection, space: JetSpace, z0: np.ndarray, u_seed) -> np.ndarray:
    """The time-one state at u = 0 by its degree recursion in du.

    EXP(s du, v) is the time-s point of the flow from du, so along the flow
    the du-degree-k parts of x and y grow as t^k and that of u as t^(k - 1).
    With [.]_k the du-degree-k part of the time-one state Z = (X, Y, U), the
    flow's equations then give

        X_k = U_k / k,   Y_k = [-N(X, Y) U]_k / k,   U_k = [-dN(X, Y)[U, U]]_k / (k - 1)

    (k >= 2 for U; U_1 = du).  The brackets are the at-rest jet field at Z,
    and each reads only degrees below k, so ``space.order`` sweeps of
    Z <- Z0 + F(Z) / degree make every slot exact (Taylor coefficients of ODE
    solutions, Jorba & Zou, Exp. Math. 14, 2005).  Every sweep reads N's jet
    at the one primal point (x0, v), so the sweeps share one evaluation of N.
    """
    n = z0.shape[1] // 3
    degree = np.zeros(space.size)
    if u_seed is not None:
        degree = space.exponents[:, u_seed : u_seed + n].sum(axis=1).astype(float)
    weights = np.zeros(z0.shape)
    np.divide(1.0, degree[:, None], out=weights[:, : 2 * n], where=degree[:, None] >= 1)
    np.divide(1.0, degree[:, None] - 1, out=weights[:, 2 * n :], where=degree[:, None] >= 2)
    rhs = _jet_rhs(conn, space, at_rest=True)
    z = z0
    for _ in range(space.order):
        z = z0 + rhs(0.0, z.ravel()).reshape(z0.shape) * weights
    if not np.isfinite(z).all():
        raise NonFiniteField("exponential-map jets at rest are not finite")
    return z


def exp_map_with_jacobian(
    conn: GeneralConnection,
    base,
    u,
    v,
    wrt: str = "uv",
    controls: IntegrationControls | None = None,
):
    """EXP(u, v) together with exact blocks of its (u, v)-Jacobian.

    ``wrt``: "u", "v" or "uv" selects which directional seeds to carry; the
    blocks are the linear slots of the order-1 Taylor-mode flow.
    Returns (endpoint, dxdu, dydu, dxdv, dydv) with unused blocks None.
    Raises ValueError for any other ``wrt``.
    """
    if wrt not in ("u", "v", "uv"):
        raise ValueError(f'wrt must be "u", "v" or "uv", not {wrt!r}')
    n = conn.dimension
    space = JetSpace.get(n * len(wrt), 1)
    u_seed = 0 if "u" in wrt else None
    v_seed = (n if "u" in wrt else 0) if "v" in wrt else None
    x, y = exp_map_jets(conn, base, u, v, space, u_seed, v_seed, controls)
    endpoint = bundle_point(x[:, 0].copy(), y[:, 0].copy())  # not views of the jet state

    def blocks(seed):
        if seed is None:
            return None, None
        slots = space.partial_slots(range(seed, seed + n))[0]
        return x[:, slots], y[:, slots]

    (dxdu, dydu), (dxdv, dydv) = blocks(u_seed), blocks(v_seed)
    return endpoint, dxdu, dydu, dxdv, dydv
