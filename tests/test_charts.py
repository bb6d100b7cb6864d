"""Autoparallel charts: center identities, series diagnostics, in-chart geometry."""

import ast
import csv
import math
from pathlib import Path

import numpy as np
import pytest

import finslerkit
from finslerkit import charts, dynamics, integrate
from finslerkit.bundle import bundle_point
from finslerkit.charts import AutoparallelChart, export_grid_csv
from finslerkit.connection import GeneralConnection
from finslerkit.dynamics import (
    TIGHT,
    IntegrationControls,
    exp_map,
    exp_map_jets,
    exp_map_with_jacobian,
    integrate_autoparallel,
)
from finslerkit.errors import (
    ExcludedSetEntered,
    FinslerKitError,
    NewtonDiverged,
    OutsideTrustRegion,
    SingularJacobian,
)
from finslerkit.jets import JetSpace, unit_index
from finslerkit.models import builtin_names, load_model

from fd_oracles import richardson_gradient
from jet_oracles import closed_form_blocks, rest_blocks


def chart_for(name, base, kind="extended", **kw):
    conn = GeneralConnection.cartan(load_model(f"builtin:{name}"))
    return AutoparallelChart(conn, np.asarray(base, float), kind=kind, **kw)


SPHERE_BASE = [np.pi / 3, 0.4]
SPHERE_YT = np.array([0.8, -0.5])
PROBE_DIR = np.array([0.6, 0.8])


# -- construction and gating ---------------------------------------------------


def test_standard_kind_refuses_undeclared_connections():
    fn = lambda xs, ys: [[ys[0] * xs[1], 0.0], [0.0, ys[1] * xs[0]]]
    conn = GeneralConnection.explicit(fn, 2, homogeneous=False, symmetric=False)
    with pytest.raises(FinslerKitError):
        AutoparallelChart(conn, np.zeros(2), kind="standard")
    AutoparallelChart(conn, np.zeros(2), kind="extended")  # extended has no gate


def test_unknown_kind_rejected():
    conn = GeneralConnection.cartan(load_model("builtin:flat4d"))
    with pytest.raises(ValueError):
        AutoparallelChart(conn, np.zeros(4), kind="normal")


# -- forward map identities ----------------------------------------------------


@pytest.mark.parametrize("kind", ["extended", "standard"])
def test_center_maps_to_base(kind):
    ch = chart_for("randers2d", [0.2, -0.3], kind)
    yt = np.array([1.1, 0.4])
    p = ch.to_manifold(np.zeros(2), yt)
    assert np.abs(p.x - ch.base).max() < 1e-12
    assert np.abs(p.y - yt).max() < 1e-12


@pytest.mark.parametrize("kind", ["extended", "standard"])
def test_flat_chart_is_identity_shift(kind):
    ch = chart_for("flat4d", [0.1, -0.2, 0.3, 0.0], kind)
    xt = np.array([0.05, -0.1, 0.2, 0.08])
    yt = np.array([1.0, 0.2, -0.3, 0.4])
    p = ch.to_manifold(xt, yt)
    assert np.abs(p.x - (ch.base + xt)).max() < 1e-10
    assert np.abs(p.y - yt).max() < 1e-10


def test_extended_chart_is_the_exponential_map_bit_for_bit():
    ch = chart_for("polar2d", [1.0, 0.0])
    xt = np.array([0.0, 0.3])
    yt = np.array([0.0, 1.0])
    p = ch.to_manifold(xt, yt)
    q = exp_map(ch.connection, ch.base, xt, yt, TIGHT)
    assert np.array_equal(p.x, q.x)
    assert np.array_equal(p.y, q.y)


def test_trust_region_enforced_and_overridable():
    ch = chart_for("polar2d", [1.0, 0.0])
    with pytest.raises(OutsideTrustRegion):
        ch.to_manifold(np.array([0.5, 0.4]), np.array([0.0, 1.0]))
    wide = chart_for("polar2d", [1.0, 0.0], radius_hint=1.0)
    wide.to_manifold(np.array([0.5, 0.4]), np.array([0.0, 1.0]))


# -- connection coefficients in the chart ---------------------------------------


@pytest.mark.parametrize("kind", ["extended", "standard"])
@pytest.mark.parametrize("name,base", [("randers2d", [0.2, -0.3]), ("sphere2d", SPHERE_BASE)])
def test_connection_vanishes_on_center_fiber(kind, name, base):
    ch = chart_for(name, base, kind)
    rng = np.random.default_rng(11)
    for _ in range(3):
        yt = rng.normal(size=2)
        yt *= (0.5 + 1.5 * rng.random()) / np.linalg.norm(yt)
        n_center = ch.connection.coefficients(bundle_point(ch.base, yt))
        n_chart = ch.connection_in_chart(np.zeros(2), yt)
        assert np.abs(n_chart).max() <= 1e-6 * (1.0 + np.abs(n_center).max())


def test_connection_in_chart_flat_everywhere():
    ch = chart_for("flat4d", [0.0, 0.1, -0.2, 0.3], kind="standard")
    rng = np.random.default_rng(3)
    for _ in range(2):
        xt = rng.normal(size=4)
        xt *= 0.3 / np.linalg.norm(xt)
        yt = rng.normal(size=4) + np.array([2.0, 0, 0, 0])
        assert np.abs(ch.connection_in_chart(xt, yt)).max() < 1e-10


def test_connection_in_chart_refuses_a_conjugate_point():
    # geodesics from the sphere's equator refocus at distance pi, where the
    # chart Jacobian is singular up to round-off (condition number ~8e12)
    ch = chart_for("sphere2d", [np.pi / 2, 0.0], radius_hint=4.0)
    with pytest.raises(SingularJacobian, match="condition number"):
        ch.connection_in_chart([0.0, np.pi], [1.0, 0.3])


def test_chart_connection_derivative_matches_hessian_contraction():
    # the first position derivative of the in-chart coefficients at the center
    # must equal -1/2 times the fiber derivative of the contracted Hessian
    ch = chart_for("sphere2d", SPHERE_BASE, kind="standard")
    yt = SPHERE_YT
    n = 2
    lhs = np.empty((n, n, n))
    h1, h2 = 4e-2, 2e-2
    for c in range(n):
        e = np.zeros(n)
        e[c] = 1.0

        def deriv(h):
            return (
                ch.connection_in_chart(h * e, yt) - ch.connection_in_chart(-h * e, yt)
            ) / (2 * h)

        lhs[:, :, c] = (4 * deriv(h2) - deriv(h1)) / 3
    dw = richardson_gradient(ch._w_matrix, yt, 2e-2, 1e-2)
    rhs = -0.5 * np.transpose(dw, (0, 2, 1))
    assert np.abs(lhs - rhs).max() <= 1e-4 * np.abs(rhs).max()


# -- inversion -------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["extended", "standard"])
def test_center_point_inverts_to_origin(kind):
    ch = chart_for("randers2d", [0.2, -0.3], kind)
    y = np.array([0.9, 0.35])
    xt, yt = ch.from_manifold(bundle_point(ch.base, y))
    assert np.abs(xt).max() < 1e-10
    assert np.abs(yt - y).max() < 1e-10


@pytest.mark.parametrize("kind", ["extended", "standard"])
def test_round_trip_through_the_chart(kind):
    ch = chart_for("polar2d", [1.0, 0.0], kind)
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = bundle_point(
            ch.base + 0.3 * rng.uniform(-1, 1, size=2),
            rng.normal(size=2) + np.array([0.0, 1.5]),
        )
        xt, yt = ch.from_manifold(p)
        q = ch.to_manifold(xt, yt)
        assert np.abs(q.as_state() - p.as_state()).max() < 1e-8


def test_inverse_seed_gap_shrinks_at_third_order():
    ch = chart_for("sphere2d", SPHERE_BASE)
    yt = SPHERE_YT

    def gap(s):
        p = ch.to_manifold(s * PROBE_DIR, yt)
        seed = ch._newton_seed(p)
        xt, yi = ch.from_manifold(p)
        return np.abs(seed - np.concatenate([xt, yi])).max()

    ratio = gap(0.2) / gap(0.1)
    assert 6.0 <= ratio <= 10.0


def _skew_fiber(xs, ys):
    """An explicit connection whose d/dy^c N^a_b is not symmetric in (b, c)."""
    return [
        [0.3 * xs[0] * ys[0] + 0.4 * ys[1], 0.5 * ys[0] - 0.2 * xs[1] * ys[1]],
        [0.1 * ys[0] + 0.4 * xs[0] * ys[1], -0.3 * ys[1] + 0.25 * xs[1] * ys[0]],
    ]


def test_inverse_seed_is_third_order_without_fiber_symmetry():
    # d/dy^c N^a_b is not symmetric in (b, c) here, so the seed's mixed term
    # must contract EXP's du dv block in its own slot order
    conn = GeneralConnection.explicit(_skew_fiber, 2)
    ch = AutoparallelChart(conn, np.array([0.2, -0.1]))
    yt = np.array([0.6, 0.8])

    def gap(s):
        xt = s * PROBE_DIR
        return np.abs(ch._newton_seed(ch.to_manifold(xt, yt)) - np.concatenate([xt, yt])).max()

    ratio = gap(0.1) / gap(0.05)
    assert 6.0 <= ratio <= 10.0


def test_cubic_series_is_fourth_order_accurate_without_fiber_symmetry():
    # EXP's third u-derivative has two product terms, dN_y[q, r, c] dN_y[r, b, d]
    # and dN_y[q, b, r] dN_y[r, c, d], which differ when d/dy N is not symmetric
    conn = GeneralConnection.explicit(_skew_fiber, 2)
    ch = AutoparallelChart(conn, np.array([0.2, -0.1]))
    yt = np.array([0.6, 0.8])

    def gap(s):
        xt = s * PROBE_DIR
        return np.abs(ch.series_forward(xt, yt, 3).x - ch.to_manifold(xt, yt).x).max()

    ratio = gap(0.1) / gap(0.05)
    assert 13.0 <= ratio <= 20.0  # 16 for an O(|xt|^4) remainder

    # the closed form against the third-order slots of EXP's jets at rest
    space = JetSpace.get(2, 3)
    x, _ = exp_map_jets(conn, ch.base, np.zeros(2), yt, space, u_seed=0)
    d3 = closed_form_blocks(conn, ch.base, yt).d3x_duuu
    for b in range(2):
        for c in range(2):
            for d in range(2):
                i = space.index_of[unit_index(2, b, c, d)]
                flow = x[:, i] * space.factorials[i]
                assert np.abs(d3[:, b, c, d] - flow).max() <= 1e-10 * (1.0 + np.abs(flow).max())


@pytest.mark.parametrize("name", builtin_names() + ["skew"])
def test_exp_jets_at_rest_are_a_recursion_equal_to_a_unit_flow_step(monkeypatch, name):
    if name == "skew":
        conn = GeneralConnection.explicit(_skew_fiber, 2)
        base, v = np.array([0.2, -0.1]), np.array([0.6, 0.8])
    else:
        model = load_model(f"builtin:{name}")
        conn = GeneralConnection.cartan(model)
        rng = np.random.default_rng(5)
        base, v = model.draw_inner_x(rng), model.draw_fiber(rng)
    n = conn.dimension

    def no_flow(*args, **kwargs):
        raise AssertionError("exp_map_jets integrated a flow at rest")

    monkeypatch.setattr(dynamics, "solve_ode", no_flow)
    for order in (2, 3, 4):
        # seeds du alone, and (dv, du) with v's degree capped at 1
        for space, u_seed, v_seed in (
            (JetSpace.get(n, order), 0, None),
            (JetSpace.get(2 * n, order, n, 1), n, 0),
        ):
            x, y = exp_map_jets(conn, base, np.zeros(n), v, space, u_seed, v_seed)
            # the reference: one unit DOP853 step of the same jet field, exact
            # to round-off since every slot is a polynomial in t of low degree
            z0 = dynamics._seeded_state(space, base, np.zeros(n), v, u_seed, v_seed)
            step = integrate.solve_ode(
                dynamics._jet_rhs(conn, space, at_rest=True), 0.0, z0.ravel(), 1.0,
                rtol=1e-12, atol=1e-14, first_step=1.0,
            )
            assert (step.naccepted, step.nrejected) == (1, 0)
            ref = step.state_end.reshape(z0.shape).T[: 2 * n]
            gap = np.abs(np.concatenate([x, y]) - ref).max()
            assert gap <= 1e-13 * (1.0 + np.abs(ref).max()), (order, space.size, gap)


def test_sphere_standard_chart_lagrangian_is_the_normal_coordinate_expansion():
    # The standard chart's x-part is the Riemann normal chart.  In
    # g0-orthonormal normal coordinates the unit sphere's metric is exactly
    # delta + (sin^2 r / r^2 - 1)(delta - xhat xhat^T), so with
    # sin^2 r / r^2 - 1 = sum_k c_k r^(2k), c = (-1/3, 2/45, -1/315, ...),
    #     L = |yt|^2 + sum_k c_k r^(2k - 2) (r^2 |yt|^2 - (xt . yt)^2)
    # with every product taken in g0.
    ch = chart_for("sphere2d", SPHERE_BASE, "standard")
    yt = SPHERE_YT
    order = 6
    space = JetSpace.get(2, order + 1)  # the standard fiber costs one order
    jet = ch._lagrangian_jet(yt, space, 0)
    g0 = ch.connection.lagrangian.l_metric(bundle_point(ch.base, yt))
    xt = [space.variable(i, 0.0) for i in range(2)]

    def inner(a, b):
        return sum(float(g0[i, j]) * a[i] * b[j] for i in range(2) for j in range(2))

    r2, xy, yy = inner(xt, xt), inner(xt, yt), inner(yt, yt)
    expected = space.constant(yy)
    for k in range(1, order // 2 + 1):
        c = (-1) ** k * 2 ** (2 * k + 1) / math.factorial(2 * k + 2)
        expected = expected + c * r2 ** (k - 1) * (r2 * yy - xy * xy)
    keep = space.degrees <= order
    assert np.abs(jet.c[keep] - expected.c[keep]).max() <= 1e-10


def test_newton_divergence_reports_last_iterate(monkeypatch):
    monkeypatch.setattr(charts, "_MAX_ITERATIONS", 2)
    ch = chart_for("polar2d", [1.0, 0.0])
    far = bundle_point(np.array([2.6, 1.9]), np.array([0.4, 1.1]))
    with pytest.raises(NewtonDiverged) as err:
        ch.from_manifold(far)
    assert err.value.residual > 0
    assert err.value.last_iterate.shape == (4,)


def test_inversion_refuses_collapsed_directions():
    ch = chart_for("polar2d", [1.0, 0.0])
    with pytest.raises(ExcludedSetEntered):
        ch.from_manifold(bundle_point(np.array([1.05, 0.02]), np.array([1e-14, 0.0])))


# -- truncated series ------------------------------------------------------------


@pytest.mark.parametrize("kind", ["extended", "standard"])
def test_series_first_order_form(kind):
    ch = chart_for("randers2d", [0.2, -0.3], kind)
    xt = np.array([0.12, -0.07])
    yt = np.array([1.0, 0.4])
    p = ch.series_forward(xt, yt, 1)
    ev = ch.connection.evaluate(bundle_point(ch.base, yt))
    assert np.abs(p.x - (ch.base + xt)).max() < 1e-14
    assert np.abs(p.y - (yt - ev.N @ xt)).max() < 1e-14


def test_series_kinds_agree_at_first_order():
    che = chart_for("sphere2d", SPHERE_BASE, "extended")
    chs = chart_for("sphere2d", SPHERE_BASE, "standard")
    xt = np.array([0.1, -0.2])
    a = che.series_forward(xt, SPHERE_YT, 1)
    b = chs.series_forward(xt, SPHERE_YT, 1)
    assert np.abs(a.as_state() - b.as_state()).max() <= 1e-9


def test_flat_series_exact_at_every_order():
    ch = chart_for("flat4d", [0.0, 0.0, 0.0, 0.0], "standard")
    xt = np.array([0.2, -0.1, 0.05, 0.3])
    yt = np.array([1.0, 0.5, -0.2, 0.1])
    for order in (1, 2, 3):
        p = ch.series_forward(xt, yt, order)
        assert np.abs(p.x - xt).max() < 1e-14
        assert np.abs(p.y - yt).max() < 1e-14


def test_series_order_three_x_converges_at_fourth_order():
    ch = chart_for("sphere2d", SPHERE_BASE)
    yt = SPHERE_YT

    def gap(s):
        xt = s * PROBE_DIR
        return np.abs(ch.series_forward(xt, yt, 3).x - ch.to_manifold(xt, yt).x).max()

    ratio = gap(0.2) / gap(0.1)
    assert 12.0 <= ratio <= 20.0


@pytest.mark.parametrize("kind", ["extended", "standard"])
def test_series_order_two_y_converges_at_third_order(kind):
    ch = chart_for("sphere2d", SPHERE_BASE, kind)
    yt = SPHERE_YT

    def gap(s):
        xt = s * PROBE_DIR
        return np.abs(ch.series_forward(xt, yt, 2).y - ch.to_manifold(xt, yt).y).max()

    ratio = gap(0.2) / gap(0.1)
    assert 6.0 <= ratio <= 10.0


def test_standard_series_quadratic_weight_is_half():
    # The quadratic term of the position Jacobian carries weight 1/2 (it is
    # the exact derivative of the cubic x-series).  The weight-1 variant one
    # might write down instead drops the fiber series to second-order
    # accuracy; the integrated map settles the choice.
    ch = chart_for("sphere2d", SPHERE_BASE, "standard")
    yt = SPHERE_YT
    blocks = rest_blocks(ch.connection, ch.base, yt)
    amat, smat = -blocks.d2x_duu, -blocks.d3x_duuu

    def gap(s, weight):
        xt = s * PROBE_DIR
        jac = (
            np.eye(2)
            - np.einsum("qpc,c->qp", amat, xt)
            - weight * np.einsum("qpcd,c,d->qp", smat, xt, xt)
        )
        return np.abs(jac @ yt - ch.to_manifold(xt, yt).y).max()

    good = gap(0.2, 0.5) / gap(0.1, 0.5)
    bad = gap(0.2, 1.0) / gap(0.1, 1.0)
    assert 6.0 <= good <= 10.0
    assert 3.2 <= bad <= 5.0


def test_extended_and_standard_differ_quadratically():
    che = chart_for("sphere2d", SPHERE_BASE, "extended")
    chs = chart_for("sphere2d", SPHERE_BASE, "standard")
    yt = SPHERE_YT

    def gap(s):
        xt = s * PROBE_DIR
        a = che.to_manifold(xt, yt).as_state()
        b = chs.to_manifold(xt, yt).as_state()
        return np.abs(a - b).max()

    ratio = gap(0.2) / gap(0.1)
    assert 3.2 <= ratio <= 5.0


def test_series_rejects_unsupported_order():
    ch = chart_for("flat4d", np.zeros(4))
    from finslerkit.errors import OrderUnsupported

    with pytest.raises(OrderUnsupported):
        ch.series_forward(np.zeros(4), np.array([1.0, 0, 0, 0]), 4)


# -- Jacobian series ---------------------------------------------------------------


@pytest.mark.parametrize("kind", ["extended", "standard"])
def test_jacobian_series_center_blocks_match_the_flow(kind):
    # the four blocks at the center against the variational-flow Jacobian
    ch = chart_for("polar2d", [1.3, 0.2], kind)
    yt = np.array([0.6, 0.8])
    js = ch.jacobian_series(yt)
    _, dxdu, dydu, dxdv, dydv = exp_map_with_jacobian(
        ch.connection, ch.base, np.zeros(2), yt, wrt="uv", controls=TIGHT
    )
    assert np.abs(js.dx_dxt - dxdu).max() < 1e-8
    assert np.abs(js.dx_dyt - dxdv).max() < 1e-8
    assert np.abs(js.dy_dxt - dydu).max() < 1e-8
    assert np.abs(js.dy_dyt - dydv).max() < 1e-8
    n0 = ch.connection.coefficients(bundle_point(ch.base, yt))
    assert np.abs(js.dy_dxt + n0).max() < 1e-12


def test_jacobian_series_linear_coefficient_against_flow_differences():
    ch = chart_for("polar2d", [1.3, 0.2])
    yt = np.array([0.6, 0.8])
    js = ch.jacobian_series(yt)

    def jac_at(w):
        return exp_map_with_jacobian(
            ch.connection, ch.base, w, yt, wrt="u", controls=TIGHT
        )[1]

    fd = richardson_gradient(jac_at, np.zeros(2), 1e-2, 5e-3)
    assert np.abs(js.dx_dxt_lin - fd).max() < 1e-6


def test_jacobian_series_fiber_linear_coefficient_against_flow_differences():
    ch = chart_for("polar2d", [1.3, 0.2])
    yt = np.array([0.6, 0.8])
    js = ch.jacobian_series(yt)

    def dydv_at(w):
        return exp_map_with_jacobian(
            ch.connection, ch.base, w, yt, wrt="v", controls=TIGHT
        )[4]

    fd = richardson_gradient(dydv_at, np.zeros(2), 1e-2, 5e-3)
    assert np.abs(js.dy_dyt_lin - fd).max() < 1e-6


def test_jacobian_series_flat_linear_terms_vanish():
    ch = chart_for("flat4d", np.zeros(4), "standard")
    js = ch.jacobian_series(np.array([1.0, 0.2, -0.1, 0.4]))
    for lin in (js.dx_dxt_lin, js.dx_dyt_lin, js.dy_dxt_lin, js.dy_dyt_lin):
        assert np.abs(lin).max() < 1e-12


# -- Lagrangian and curvature in the chart ------------------------------------------


def test_lagrangian_in_chart_value_is_the_center_value():
    ch = chart_for("sphere2d", SPHERE_BASE)
    rec = ch.lagrangian_in_chart(SPHERE_YT)
    expected = ch.connection.lagrangian.evaluate(bundle_point(ch.base, SPHERE_YT))
    assert rec.value == expected


@pytest.mark.parametrize("name,base,yt", [
    ("sphere2d", SPHERE_BASE, SPHERE_YT),
    ("randers2d", [0.2, -0.3], np.array([1.0, 0.4])),
])
def test_extended_chart_flattens_the_lagrangian(name, base, yt):
    ch = chart_for(name, base)
    rec = ch.lagrangian_in_chart(yt)
    scale = abs(rec.value) + 1.0
    assert np.abs(rec.grad_xt).max() <= 1e-5 * scale
    assert np.abs(rec.hess_xt).max() <= 1e-5 * scale


def test_standard_chart_hessian_is_curvature():
    ch = chart_for("sphere2d", SPHERE_BASE, "standard")
    yt = SPHERE_YT
    rec = ch.lagrangian_in_chart(yt)
    scale = abs(rec.value) + 1.0
    assert np.abs(rec.grad_xt).max() <= 1e-5 * scale

    ev = ch.connection.evaluate(bundle_point(ch.base, yt))
    g = ch.connection.lagrangian.l_metric(bundle_point(ch.base, yt))
    r_down = np.einsum("am,mbd->abd", g, ev.R)
    predicted = (2.0 / 3.0) * np.einsum("d,abd->ab", yt, r_down)
    assert np.abs(rec.hess_xt - predicted).max() <= 1e-4 * np.abs(predicted).max()
    assert np.abs(rec.hess_xt - rec.hess_xt.T).max() <= 1e-6 * (np.abs(rec.hess_xt).max() + 1.0)


def test_curvature_in_chart_requires_standard_kind():
    ch = chart_for("sphere2d", SPHERE_BASE)
    with pytest.raises(FinslerKitError):
        ch.curvature_in_chart(SPHERE_YT)


def test_curvature_in_chart_matches_connection_curvature():
    ch = chart_for("sphere2d", SPHERE_BASE, "standard")
    yt = SPHERE_YT
    r_chart = ch.curvature_in_chart(yt)
    r_conn = ch.connection.evaluate(bundle_point(ch.base, yt)).R
    assert np.abs(r_chart - r_conn).max() <= 1e-4 * np.abs(r_conn).max()


def test_curvature_in_chart_flat_geometry_vanishes():
    ch = chart_for("polar2d", [1.0, 0.0], "standard")
    r_chart = ch.curvature_in_chart(np.array([0.3, 0.9]))
    assert np.abs(r_chart).max() <= 1e-6


def _signed_step(arg):
    """An argument written as a + e or a - e, or as e or -e (``-h * w``
    counts as -(h * w)), split into (sign, step); None for a literal."""
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, (ast.Add, ast.Sub)):
        return type(arg.op), ("shift", ast.dump(arg.left), ast.dump(arg.right))
    sign = ast.Add
    if (
        isinstance(arg, ast.BinOp)
        and isinstance(arg.op, (ast.Mult, ast.Div))
        and isinstance(arg.left, ast.UnaryOp)
        and isinstance(arg.left.op, ast.USub)
    ):
        arg, sign = ast.BinOp(arg.left.operand, arg.op, arg.right), ast.Sub
    elif isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.USub):
        arg, sign = arg.operand, ast.Sub
    if isinstance(arg, ast.Constant):
        return None  # np.full(n, -1.0) next to np.full(n, 1.0) is no difference
    return sign, ("scale", ast.dump(arg))


def _central_differences(tree) -> list:
    """Functions of ``tree`` that call one callable at both a + e and a - e,
    or at both e and -e."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        signs = {}
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            for i, arg in enumerate(node.args):
                step = _signed_step(arg)
                if step is not None:
                    signs.setdefault((ast.dump(node.func), i, step[1]), set()).add(step[0])
        if any(len(ops) == 2 for ops in signs.values()):
            found.append(fn.name)
    return found


def test_library_takes_no_finite_differences():
    # every derivative in the library comes from jets; differences are oracles
    helpers = {"central_gradient", "central_hessian", "richardson_gradient", "richardson_hessian"}
    oracles = ast.parse((Path(__file__).parent / "fd_oracles.py").read_text())
    assert {"central_gradient", "central_hessian", "fd_levi_civita"} <= set(
        _central_differences(oracles)
    )
    modules = sorted(Path(finslerkit.__file__).parent.glob("*.py"))
    assert "numerics.py" not in {path.name for path in modules}
    for path in modules:
        tree = ast.parse(path.read_text())
        assert _central_differences(tree) == [], path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert not node.id.endswith("_FD_STEPS"), (path.name, node.id)
            if isinstance(node, ast.FunctionDef):
                assert node.name not in helpers, (path.name, node.name)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.split(".")[-1] for alias in node.names}
                names.add((getattr(node, "module", None) or "").split(".")[-1])
                assert not names & (helpers | {"numerics", "fd_oracles"}), path.name


def test_finite_difference_guard_sees_sign_flipped_steps():
    source = """
def shifted(f, z, e):
    return f(z + e) - f(z - e)

def scaled(f, h, w):
    return f(h * w) - f(-h * w)

def closure(f, h):
    def path(s):
        return f(s)
    return path(2 * h) - path(-2 * h) + path(h) - path(-h)

def box(n):
    return np.full(n, -1.0), np.full(n, 1.0)

def one_sided(f, h):
    return f(h) - f(0.0)
"""
    assert _central_differences(ast.parse(source)) == ["shifted", "scaled", "closure"]


# -- quadratic Lagrangians reduce to classical normal coordinates --------------------


def test_standard_chart_straightens_geodesics():
    conn = GeneralConnection.cartan(load_model("builtin:polar2d"))
    base = np.array([1.3, 0.2])
    ch = AutoparallelChart(conn, base, kind="standard")
    u0 = np.array([0.25, -0.15])
    traj = integrate_autoparallel(
        conn, base, u0, 1.0, IntegrationControls(rtol=1e-12, atol=1e-13)
    )
    xt1, _ = ch.from_manifold(traj.state(1.0))
    for t in (0.25, 0.5, 0.75):
        xtt, _ = ch.from_manifold(traj.state(t))
        assert np.abs(xtt - t * xt1).max() < 1e-8


# -- audit records -------------------------------------------------------------------


def test_record_round_trip_residuals(tmp_path):
    ch = chart_for("polar2d", [1.0, 0.0])
    rec = ch.record(np.array([0.1, -0.05]), np.array([0.3, 0.9]))
    assert rec["kind"] == "extended"
    assert set(rec) == {"kind", "base", "x_tilde", "y_tilde", "x", "y", "residuals"}
    assert rec["residuals"]["round_trip_x_tilde"] < 1e-8
    assert rec["residuals"]["round_trip_y_tilde"] < 1e-8

    path = tmp_path / "grid.csv"
    rows = [np.array([0.0, 0.0]), np.array([0.1, -0.05])]
    export_grid_csv(ch, rows, np.array([0.3, 0.9]), path)
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["xt1", "xt2", "x1", "x2", "y1", "y2"]
    assert len(table) == 3
    # first row is the center: x = base, y = yt
    assert float(table[1][2]) == pytest.approx(1.0, abs=1e-12)
    assert float(table[1][4]) == pytest.approx(0.3, abs=1e-12)
