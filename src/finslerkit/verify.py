"""Property-verification suite behind the ``verify`` subcommand.

Every check measures one mathematical identity of a model's canonical
connection (or of the charts built from it) and reports the worst scaled
residual over a seeded sample set.  Reports are plain dicts designed for
stable JSON serialization: given the same model, seed and budget, two runs
produce byte-identical output.

Budgets trade coverage for runtime.  ``quick`` is smoke scale; ``full`` uses
the acceptance-scale sample counts.  A budget sets the same counts on every
model, and every row measures all of its samples.  Which rows a report holds
depends only on whether a claim applies: the quadratic reductions need a
quadratic Lagrangian and the exact-shift rows a flat connection.

Claims about Taylor coefficients at a point (the exponential map's derivative
blocks, the truncated chart series) are compared against the coefficients of
one Taylor-mode flow at rest, which are exact to round-off; no check takes a
finite difference or fits an observed order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bundle import TangentBundlePoint, bundle_point
from .charts import AutoparallelChart
from .connection import GeneralConnection, cartan_linear_delta
from .dynamics import (
    TIGHT,
    exp_derivatives,
    exp_map,
    exp_map_jets,
    integrate_autoparallel,
    integrate_horizontal_autoparallel,
)
from .jets import JetSpace
from .lagrangian import FinslerLagrangian
from .models import load_model

SCHEMA_VERSION = 1

# connections whose coefficients stay below this at probe points are treated
# as identically flat (the exact-shift checks apply)
_FLATNESS_PROBE_TOL = 1e-12


def _row(ctx, id, claim, samples, residual, tolerance) -> dict:
    residual = float(residual)
    return {
        "id": id,
        "claim": claim,
        "model": ctx.name,
        "seed": ctx.seed,
        "samples": int(samples),
        "max_residual": residual,
        "tolerance": float(tolerance),
        "passed": residual <= tolerance,
    }


@dataclass
class _Ctx:
    name: str
    model: FinslerLagrangian
    conn: GeneralConnection
    seed: int
    counts: dict
    flat: bool

    @property
    def dimension(self) -> int:
        return self.model.dimension

    def rng(self, slot: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, slot])

    def chart(self, kind: str) -> AutoparallelChart:
        return AutoparallelChart(self.conn, self.model.center(), kind=kind, radius_hint=1.5)


def _counts(budget: str) -> dict:
    full = budget == "full"
    return {
        "identity": 200 if full else 25,
        "rescale": 20 if full else 4,
        "exp_zero": 20 if full else 5,
        "exp_blocks": 6 if full else 2,
        "levi_civita": 10 if full else 3,
        "berwald_bases": 5 if full else 2,
        "berwald_fibers": 10 if full else 3,
        "geodesics": 3 if full else 1,
        "chart_center": 100 if full else 3,
        "chart_flat": 20 if full else 2,
        "chart_hess": 10 if full else 2,
        "round_trip": 50 if full else 5,
        "curv_invariance": 3 if full else 1,
        "series": 3 if full else 1,
        "flat_probe": 8 if full else 3,
    }


def _gap(value: np.ndarray, reference: np.ndarray) -> float:
    """Largest deviation from ``reference``, scaled by 1 + its largest entry."""
    return float(np.abs(value - reference).max() / (1.0 + np.abs(reference).max()))


def _taylor_terms(space: JetSpace, c: np.ndarray, point: np.ndarray, degrees) -> np.ndarray:
    """Sum of the terms of the jets ``c`` (one row per jet) whose degree is in
    ``degrees``, evaluated at ``point`` (one value per variable of ``space``)."""
    monomials = np.prod(point ** np.array(space.indices), axis=1)
    keep = np.isin(space.degrees, degrees)
    return c[:, keep] @ monomials[keep]


# -- check implementations ------------------------------------------------------
#
# Each function returns a list of report rows (empty when the check does
# not apply to the model).  The slot number passed to ctx.rng pins the sample
# stream per check, so report content is independent of execution order.


def _check_identities(ctx: _Ctx) -> list:
    n = ctx.dimension
    r = ctx.model.homogeneity_degree
    rng = ctx.rng(0)
    count = ctx.counts["identity"]
    worst = dict.fromkeys(
        ("euler", "constancy", "symmetry", "homogeneity", "spray", "annihilation", "cyclic"),
        0.0,
    )
    for _ in range(count):
        p = ctx.model.draw_point(rng)
        ev = ctx.conn.evaluate(p)
        jet = ctx.model.taylor(p, 1)
        gx, gy = jet.partials(range(n)), jet.partials(range(n, 2 * n))
        value = ctx.model.evaluate(p)

        euler = abs(float(gy @ p.y) - r * value) / (1.0 + abs(r * value))
        worst["euler"] = max(worst["euler"], euler)

        vertical = ev.N.T @ gy
        scale = 1.0 + np.abs(gx).max() + np.abs(vertical).max()
        worst["constancy"] = max(worst["constancy"], np.abs(gx - vertical).max() / scale)

        sym = np.abs(ev.dN_y - np.transpose(ev.dN_y, (0, 2, 1))).max()
        worst["symmetry"] = max(worst["symmetry"], sym / (1.0 + np.abs(ev.dN_y).max()))

        for lam in (0.5, 2.0):
            scaled = ctx.conn.coefficients(bundle_point(p.x, lam * p.y))
            gap = np.abs(scaled - lam * ev.N).max()
            worst["homogeneity"] = max(
                worst["homogeneity"], gap / ((1.0 + np.abs(ev.N).max()) * max(1.0, lam))
            )

        G = cartan_linear_delta(ctx.model, p)
        worst["spray"] = max(worst["spray"], _gap(np.einsum("abc,b->ac", G, p.y), ev.N))

        contraction = np.einsum("rbc,r->bc", ev.R, gy)
        worst["annihilation"] = max(
            worst["annihilation"],
            np.abs(contraction).max() / (1.0 + np.abs(ev.R).max() * np.abs(gy).max()),
        )

        g = ctx.model.l_metric(p)
        R_low = np.einsum("am,mbd->abd", g, ev.R)
        cyclic = R_low + np.transpose(R_low, (1, 2, 0)) + np.transpose(R_low, (2, 0, 1))
        worst["cyclic"] = max(worst["cyclic"], np.abs(cyclic).max() / (1.0 + np.abs(R_low).max()))

    return [
        _row(ctx, "euler-degree",
             "fiber scaling acts on L with its homogeneity degree: y^a dL/dy^a = r L",
             count, worst["euler"], 1e-12),
        _row(ctx, "horizontal-constancy",
             "the horizontal derivative of the Lagrangian vanishes: delta_a L = 0",
             count, worst["constancy"], 1e-10),
        _row(ctx, "fiber-symmetry",
             "fiber derivatives of the connection commute: dN^a_c/dy^b = dN^a_b/dy^c",
             count, worst["symmetry"], 1e-10),
        _row(ctx, "connection-homogeneity",
             "the connection coefficients are positively 1-homogeneous in the fiber",
             count, worst["homogeneity"], 1e-10),
        _row(ctx, "spray-contraction",
             "contracting the delta-Christoffel symbols with y reproduces N",
             count, worst["spray"], 1e-9),
        _row(ctx, "curvature-annihilation",
             "the curvature contracts to zero against the fiber gradient of L",
             count, worst["annihilation"], 1e-8),
        _row(ctx, "curvature-cyclic-sum",
             "the lowered curvature sums to zero over cyclic index rotations",
             count, worst["cyclic"], 1e-8),
    ]


def _check_velocity_rescaling(ctx: _Ctx) -> list:
    rng = ctx.rng(1)
    worst = 0.0
    count = ctx.counts["rescale"]
    for _ in range(count):
        x0 = ctx.model.draw_inner_x(rng)
        u = ctx.model.draw_fiber(rng, (0.2, 0.35))
        v = ctx.model.draw_fiber(rng)
        ref = integrate_horizontal_autoparallel(ctx.conn, x0, u, v, 2.0, TIGHT)
        for alpha in (0.25, 0.5, 2.0):
            end = integrate_horizontal_autoparallel(
                ctx.conn, x0, alpha * u, v, 1.0, TIGHT
            ).endpoint
            at = ref.state(alpha)
            gap = np.linalg.norm(np.concatenate([end.x - at.x, end.y - at.y]))
            worst = max(worst, gap)
    return [
        _row(ctx, "velocity-rescaling",
             "rescaling the velocity seed reparametrizes the horizontal autoparallel",
             count, worst, 1e-8),
    ]


def _check_exp_zero_velocity(ctx: _Ctx) -> list:
    rng = ctx.rng(2)
    worst = 0.0
    count = ctx.counts["exp_zero"]
    n = ctx.dimension
    for _ in range(count):
        x0 = ctx.model.draw_inner_x(rng)
        v = ctx.model.draw_fiber(rng)
        end = exp_map(ctx.conn, x0, np.zeros(n), v, TIGHT)
        worst = max(worst, np.abs(end.x - x0).max(), np.abs(end.y - v).max())
    return [
        _row(ctx, "exp-zero-velocity",
             "the exponential map with zero velocity seed fixes the base and fiber",
             count, worst, 1e-12),
    ]


def _check_exp_derivative_blocks(ctx: _Ctx) -> list:
    rng = ctx.rng(3)
    n = ctx.dimension
    # seeds (dv, du); no block is second order in v, so v's degree is capped at 1
    space = JetSpace.get(2 * n, 3, n, 1)
    worst = 0.0
    count = ctx.counts["exp_blocks"]
    for _ in range(count):
        x0 = ctx.model.draw_inner_x(rng)
        v = ctx.model.draw_fiber(rng)
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        blocks = exp_derivatives(ctx.conn, x0, v)
        # EXP(du, v + dv) is a flow at rest, so its jets are exact to round-off
        x, y = exp_map_jets(
            ctx.conn, x0, np.zeros(n), v, space, u_seed=n, v_seed=0, controls=TIGHT
        )
        du, dv = np.concatenate([np.zeros(n), w]), np.concatenate([w, np.zeros(n)])
        # a derivative of order k along w is k! times the degree-k terms there
        pairs = [
            (_taylor_terms(space, x, du, 1), blocks.dx_du @ w),
            (_taylor_terms(space, y, du, 1), blocks.dy_du @ w),
            (_taylor_terms(space, x, dv, 1), blocks.dx_dv @ w),
            (_taylor_terms(space, y, dv, 1), blocks.dy_dv @ w),
            (2 * _taylor_terms(space, x, du, 2), np.einsum("qbc,b,c->q", blocks.d2x_duu, w, w)),
            (2 * _taylor_terms(space, y, du, 2), np.einsum("qbc,b,c->q", blocks.d2y_duu, w, w)),
            (6 * _taylor_terms(space, x, du, 3),
             np.einsum("qbcd,b,c,d->q", blocks.d3x_duuu, w, w, w)),
            # the du dv terms: degree 2 at du + dv less its pure du and dv parts
            (_taylor_terms(space, y, du + dv, 2) - _taylor_terms(space, y, du, 2)
             - _taylor_terms(space, y, dv, 2), np.einsum("qbc,b,c->q", blocks.d2y_duv, w, w)),
        ]
        worst = max([worst] + [_gap(closed, flow) for flow, closed in pairs])
    return [
        _row(ctx, "exp-derivative-blocks",
             "closed-form derivative blocks of the exponential map equal the flow's Taylor coefficients",
             count, worst, 1e-10),
    ]


def _levi_civita(model: FinslerLagrangian, xv: np.ndarray) -> np.ndarray:
    """Christoffel symbols of the quadratic form's metric, from order-1 jets.

    L = g_ab(x) y^a y^b, so polarizing L's x-jets at y = e_a, e_b and
    e_a + e_b gives g_ab and its first x-derivatives without the spray.
    """
    n = model.dimension
    eye = np.eye(n)

    def value_and_dx(y):
        jet = model.taylor(bundle_point(xv, y), 1)
        return np.concatenate([[jet.value], jet.partials(range(n))])

    single = [value_and_dx(eye[a]) for a in range(n)]
    polar = np.array([
        [0.5 * (value_and_dx(eye[a] + eye[b]) - single[a] - single[b]) for b in range(n)]
        for a in range(n)
    ])
    dg = np.moveaxis(polar[..., 1:], 2, 0)  # dg[c][q][b] = d_c g_qb
    ginv = np.linalg.inv(polar[..., 0])
    gamma = np.empty((n, n, n))
    for b in range(n):
        for c in range(n):
            gamma[:, b, c] = 0.5 * ginv @ (dg[b][:, c] + dg[c][:, b] - dg[:, b, c])
    return gamma


def _check_levi_civita(ctx: _Ctx) -> list:
    if ctx.model.family != "quadratic":
        return []
    rng = ctx.rng(4)
    n = ctx.dimension
    worst = 0.0
    count = ctx.counts["levi_civita"]
    for _ in range(count):
        x0 = ctx.model.draw_inner_x(rng)
        y = ctx.model.draw_fiber(rng)
        gamma = _levi_civita(ctx.model, x0)
        N = ctx.conn.coefficients(bundle_point(x0, y))
        worst = max(worst, _gap(np.einsum("abc,c->ab", gamma, y), N))
    return [
        _row(ctx, "levi-civita-reduction",
             "for a quadratic Lagrangian the connection is the Levi-Civita transport",
             count, worst, 1e-8),
    ]


def _check_berwald_y_independence(ctx: _Ctx) -> list:
    if ctx.model.family != "quadratic":
        return []
    rng = ctx.rng(5)
    worst = 0.0
    bases = ctx.counts["berwald_bases"]
    fibers = ctx.counts["berwald_fibers"]
    for _ in range(bases):
        x0 = ctx.model.draw_inner_x(rng)
        ref_D = ref_G = None
        for _ in range(fibers):
            p = bundle_point(x0, ctx.model.draw_fiber(rng))
            D = ctx.conn.berwald(p)
            G = cartan_linear_delta(ctx.model, p)
            if ref_D is None:
                ref_D, ref_G = D, G
                continue
            worst = max(worst, _gap(D, ref_D), _gap(G, ref_G))
    return [
        _row(ctx, "berwald-y-independence",
             "for a quadratic Lagrangian the Berwald and delta-Christoffel symbols are fiber-independent",
             bases * (fibers - 1), worst, 1e-9),
    ]


def _check_flat_exactness(ctx: _Ctx) -> list:
    if not ctx.flat:
        return []
    rng = ctx.rng(6)
    count = ctx.counts["flat_probe"]
    tensor_worst = 0.0
    for _ in range(count):
        p = ctx.model.draw_point(rng)
        ev = ctx.conn.evaluate(p)
        tensor_worst = max(
            tensor_worst,
            np.abs(ev.N).max(),
            np.abs(ev.R).max(),
            np.abs(ctx.conn.berwald(p)).max(),
            np.abs(cartan_linear_delta(ctx.model, p)).max(),
        )

    map_worst = 0.0
    x0 = ctx.model.center()
    charts = [ctx.chart("extended"), ctx.chart("standard")]
    for _ in range(3):
        u = ctx.model.draw_fiber(rng, (0.2, 0.4))
        v = ctx.model.draw_fiber(rng)
        end = exp_map(ctx.conn, x0, u, v, TIGHT)
        map_worst = max(map_worst, np.abs(end.x - (x0 + u)).max(), np.abs(end.y - v).max())
        for chart in charts:
            q = chart.to_manifold(u, v)
            map_worst = max(map_worst, np.abs(q.x - (x0 + u)).max(), np.abs(q.y - v).max())
    return [
        _row(ctx, "flat-connection-tensors",
             "a flat model has vanishing connection, Berwald, delta-Christoffel and curvature tensors",
             count, tensor_worst, 1e-13),
        _row(ctx, "flat-shift-maps",
             "on a flat model the exponential map and both charts act as coordinate shifts",
             3, map_worst, 1e-10),
    ]


def _check_chart_center_connection(ctx: _Ctx) -> list:
    rng = ctx.rng(7)
    n = ctx.dimension
    count = ctx.counts["chart_center"]
    rows = []
    for kind in ("extended", "standard"):
        chart = ctx.chart(kind)
        worst = 0.0
        for _ in range(count):
            yt = ctx.model.draw_fiber(rng)
            coeff = chart.connection_in_chart(np.zeros(n), yt)
            ambient = ctx.conn.coefficients(bundle_point(chart.base, yt))
            worst = max(worst, np.abs(coeff).max() / (1.0 + np.abs(ambient).max()))
        rows.append(
            _row(ctx, f"chart-center-connection-{kind}",
                 f"the {kind}-kind chart connection vanishes on the fiber over the center",
                 count, worst, 1e-6)
        )
    return rows


def _check_chart_lagrangian_flatness(ctx: _Ctx) -> list:
    rng = ctx.rng(8)
    chart = ctx.chart("extended")
    worst = 0.0
    count = ctx.counts["chart_flat"]
    for _ in range(count):
        yt = ctx.model.draw_fiber(rng)
        lag = chart.lagrangian_in_chart(yt)
        scale = 1.0 + abs(lag.value)
        worst = max(worst, np.abs(lag.grad_xt).max() / scale, np.abs(lag.hess_xt).max() / scale)
    return [
        _row(ctx, "chart-lagrangian-flatness",
             "in the extended chart the Lagrangian is stationary to second order at the center",
             count, worst, 1e-5),
    ]


def _check_chart_hessian_curvature(ctx: _Ctx) -> list:
    rng = ctx.rng(9)
    chart = ctx.chart("standard")
    worst = 0.0
    count = ctx.counts["chart_hess"]
    for _ in range(count):
        yt = ctx.model.draw_fiber(rng)
        hess = chart.lagrangian_in_chart(yt).hess_xt
        p = bundle_point(chart.base, yt)
        g = ctx.model.l_metric(p)
        R = ctx.conn.evaluate(p).R
        target = (2.0 / 3.0) * np.einsum("d,am,mbd->ab", yt, g, R)
        worst = max(worst, _gap(hess, target))
    return [
        _row(ctx, "chart-hessian-curvature",
             "the standard-chart Hessian of L at the center is 2/3 of the fiber-contracted lowered curvature",
             count, worst, 1e-4),
    ]


def _check_chart_round_trip(ctx: _Ctx) -> list:
    rng = ctx.rng(10)
    n = ctx.dimension
    count = ctx.counts["round_trip"]
    rows = []
    for kind in ("extended", "standard"):
        chart = ctx.chart(kind)
        worst = 0.0
        for _ in range(count):
            dx = rng.standard_normal(n)
            dx *= 0.3 * rng.random() / np.linalg.norm(dx)
            p = bundle_point(chart.base + dx, ctx.model.draw_fiber(rng))
            xt, yt = chart.from_manifold(p)
            q = chart.to_manifold(xt, yt)
            worst = max(worst, np.abs(q.x - p.x).max(), np.abs(q.y - p.y).max())
        rows.append(
            _row(ctx, f"chart-round-trip-{kind}",
                 f"inverting the {kind}-kind chart and mapping back reproduces the bundle point",
                 count, worst, 1e-8)
        )
    return rows


def _check_straight_geodesics(ctx: _Ctx) -> list:
    if ctx.model.family != "quadratic":
        return []
    rng = ctx.rng(11)
    chart = ctx.chart("standard")
    worst = 0.0
    count = ctx.counts["geodesics"]
    for _ in range(count):
        u0 = ctx.model.draw_fiber(rng, (0.25, 0.4))
        traj = integrate_autoparallel(ctx.conn, chart.base, u0, 0.75, TIGHT)
        ray = None
        for t in (0.25, 0.5, 0.75):
            xt, _ = chart.from_manifold(traj.state(t))
            if ray is None:
                ray = xt / t
                continue
            worst = max(worst, np.abs(xt / t - ray).max())
    return [
        _row(ctx, "chart-straight-geodesics",
             "geodesics through the center are straight rays in standard chart coordinates",
             count, worst, 1e-8),
    ]


def _check_curvature_invariance(ctx: _Ctx) -> list:
    rng = ctx.rng(12)
    chart = ctx.chart("standard")
    worst = 0.0
    count = ctx.counts["curv_invariance"]
    for _ in range(count):
        yt = ctx.model.draw_fiber(rng)
        in_chart = chart.curvature_in_chart(yt)
        ambient = ctx.conn.evaluate(bundle_point(chart.base, yt)).R
        worst = max(worst, _gap(in_chart, ambient))
    return [
        _row(ctx, "chart-curvature-invariance",
             "curvature evaluated inside the standard chart equals the ambient curvature on the center fiber",
             count, worst, 1e-4),
    ]


def _check_series_orders(ctx: _Ctx) -> list:
    rng = ctx.rng(13)
    n = ctx.dimension
    count = ctx.counts["series"]
    # the extended kind's jets hold the map to order 3, the standard kind's
    # fiber to order 2
    space = JetSpace.get(n, 3)
    worst = dict.fromkeys(("cubic", "quadratic", "kinds"), 0.0)
    for _ in range(count):
        # a generic base point per sample: symmetry points of a model (e.g.
        # the equator of a sphere) can null the leading series coefficients
        base = ctx.model.draw_inner_x(rng)
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        yt = ctx.model.draw_fiber(rng, (0.5, 1.0))
        ext, std = (
            AutoparallelChart(ctx.conn, base, kind=kind, radius_hint=1.5)
            for kind in ("extended", "standard")
        )
        # the chart maps' Taylor coefficients at xt = 0, from flows at rest
        xs, ys = ext._image_jets(np.zeros(n), yt, space, 0)
        ys_std = std._image_jets(np.zeros(n), yt, space, 0)[1]
        xs, ys, ys_std = (np.array([jet.c for jet in jets]) for jets in (xs, ys, ys_std))
        for key, value, reference in (
            ("cubic", ext.series_forward(w, yt, 3).x, _taylor_terms(space, xs, w, range(4))),
            ("quadratic", ext.series_forward(w, yt, 2).y, _taylor_terms(space, ys, w, range(3))),
            ("kinds", ys_std[:, space.degrees <= 1], ys[:, space.degrees <= 1]),
        ):
            worst[key] = max(worst[key], _gap(value, reference))
    return [
        _row(ctx, "series-order-cubic",
             "the order-3 coordinate series is the chart map's Taylor polynomial through third order",
             count, worst["cubic"], 1e-10),
        _row(ctx, "series-order-quadratic",
             "the order-2 fiber series is the chart map's Taylor polynomial through second order",
             count, worst["quadratic"], 1e-10),
        _row(ctx, "series-kind-gap",
             "extended and standard chart fibers agree through first order at the center",
             count, worst["kinds"], 1e-10),
    ]


_REGISTRY = [
    _check_identities,
    _check_velocity_rescaling,
    _check_exp_zero_velocity,
    _check_exp_derivative_blocks,
    _check_levi_civita,
    _check_berwald_y_independence,
    _check_flat_exactness,
    _check_chart_center_connection,
    _check_chart_lagrangian_flatness,
    _check_chart_hessian_curvature,
    _check_chart_round_trip,
    _check_straight_geodesics,
    _check_curvature_invariance,
    _check_series_orders,
]


def _is_flat(model: FinslerLagrangian, conn: GeneralConnection) -> bool:
    rng = np.random.default_rng(2)
    return all(
        np.abs(conn.coefficients(model.draw_point(rng))).max() < _FLATNESS_PROBE_TOL
        for _ in range(3)
    )


def run_verification(model_source, seed: int = 0, budget: str = "quick") -> dict:
    """Run every applicable check for one model and assemble the report dict."""
    if budget not in ("quick", "full"):
        raise ValueError(f"unknown budget {budget!r}; expected 'quick' or 'full'")
    model = load_model(model_source)
    conn = GeneralConnection.cartan(model)
    name = str(model_source) if not isinstance(model_source, FinslerLagrangian) else "<object>"
    ctx = _Ctx(
        name=name,
        model=model,
        conn=conn,
        seed=int(seed),
        counts=_counts(budget),
        flat=_is_flat(model, conn),
    )
    checks = [row for check in _REGISTRY for row in check(ctx)]
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "model": name,
        "seed": int(seed),
        "budget": budget,
        "all_passed": all(row["passed"] for row in checks),
        "checks": checks,
    }


def report_to_json(report: dict) -> str:
    """Serialize with repr floats and fixed ordering; byte-stable per input."""
    return json.dumps(report, indent=2) + "\n"


def format_table(report: dict) -> str:
    """Plain-text pass/fail table for terminal output."""
    lines = []
    header = f"{'check':<34} {'samples':>7} {'max residual':>13} {'tolerance':>10} {'status':>6}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["checks"]:
        lines.append(
            f"{row['id']:<34} {row['samples']:>7} {row['max_residual']:>13.3e} "
            f"{row['tolerance']:>10.1e} {'pass' if row['passed'] else 'FAIL':>6}"
        )
    lines.append(
        f"{'all checks passed' if report['all_passed'] else 'FAILURES PRESENT'}"
        f" (model {report['model']}, seed {report['seed']}, budget {report['budget']})"
    )
    return "\n".join(lines)
