"""End-to-end acceptance suite.

Twelve checks, one per headline guarantee of the library.  Every test prints
a single line with the measured residual and the pinned tolerance (written
past the capture machinery so the table is visible in a plain ``pytest -v``
run), then asserts the same bound.  Checks that aggregate several residual
kinds report the part closest to its tolerance.

Tolerances are pinned here and nowhere else; loosening one is an API break.
"""

import json

import numpy as np
import pytest

from finslerkit.bundle import bundle_point
from finslerkit.charts import AutoparallelChart
from finslerkit.connection import GeneralConnection, cartan_linear_delta
from finslerkit.dynamics import (
    IntegrationControls,
    exp_map,
    integrate_autoparallel,
    integrate_horizontal_autoparallel,
)
from finslerkit.models import builtin_names, load_model
from finslerkit.verify import report_to_json, run_verification

from fd_oracles import fd_levi_civita
from jet_oracles import jet_partial, rest_blocks

TIGHT = IntegrationControls(rtol=1e-12, atol=1e-14)

# shared sphere probe: off the equator so no symmetry nulls a coefficient
SPHERE_BASE = np.array([np.pi / 3, 0.4])
SPHERE_YT = np.array([0.8, -0.5])
PROBE_DIR = np.array([0.6, 0.8])

_MODELS = {}
_CONNECTIONS = {}


def model_for(name):
    if name not in _MODELS:
        _MODELS[name] = load_model(f"builtin:{name}")
    return _MODELS[name]


def conn_for(name):
    if name not in _CONNECTIONS:
        _CONNECTIONS[name] = GeneralConnection.cartan(model_for(name))
    return _CONNECTIONS[name]


def fiber(rng, n, lo=0.5, hi=2.0):
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return v * (lo + (hi - lo) * rng.random())


def chart_at(name, base, kind):
    return AutoparallelChart(conn_for(name), np.asarray(base, float), kind=kind,
                             radius_hint=1.5)


def _dominant(parts):
    """The (label, residual, tolerance) entry closest to failing."""
    return max(parts, key=lambda item: item[1] / item[2])


def _outside(ratio, lo, hi):
    if ratio < lo:
        return lo - ratio
    if ratio > hi:
        return ratio - hi
    return 0.0


@pytest.fixture
def emit(capsys):
    def _emit(label, residual, tolerance, detail=""):
        ok = residual <= tolerance
        tail = f"  [{detail}]" if detail else ""
        with capsys.disabled():
            print(
                f"[acceptance] {label:<44} residual {residual:9.3e}  "
                f"tol {tolerance:7.1e}  {'PASS' if ok else 'FAIL'}{tail}"
            )
        assert ok, f"{label}: residual {residual:.3e} exceeds tolerance {tolerance:.1e}"

    return _emit


def test_c01_connection_vanishes_at_chart_center(emit):
    worst = 0.0
    for mi, name in enumerate(("randers2d", "sphere2d")):
        conn = conn_for(name)
        rng = np.random.default_rng([201, mi])
        fibers = [fiber(rng, 2) for _ in range(100)]
        for kind in ("extended", "standard"):
            chart = chart_at(name, model_for(name).center(), kind)
            for yt in fibers:
                coeff = chart.connection_in_chart(np.zeros(2), yt)
                ambient = conn.coefficients(bundle_point(chart.base, yt))
                worst = max(worst, np.abs(coeff).max() / (1.0 + np.abs(ambient).max()))
    emit("chart-center connection coefficients vanish", worst, 1e-6,
         "randers2d+sphere2d, 100 fibers each, both kinds")


def test_c02_extended_chart_flattens_lagrangian(emit):
    worst = 0.0
    for mi, name in enumerate(("sphere2d", "randers2d")):
        chart = chart_at(name, model_for(name).center(), "extended")
        rng = np.random.default_rng([202, mi])
        for _ in range(20):
            lag = chart.lagrangian_in_chart(fiber(rng, 2))
            scale = 1.0 + abs(lag.value)
            worst = max(worst, np.abs(lag.grad_xt).max() / scale,
                        np.abs(lag.hess_xt).max() / scale)
    emit("extended chart kills d/dxt of L to 2nd order", worst, 1e-5,
         "sphere2d+randers2d, 20 fibers each, flow jets")


def test_c03_standard_chart_hessian_is_curvature_term(emit):
    # curved model: the center Hessian equals 2/3 of the fiber-contracted
    # lowered curvature, relatively
    model, conn = model_for("sphere2d"), conn_for("sphere2d")
    chart = chart_at("sphere2d", model.center(), "standard")
    rng = np.random.default_rng([203, 0])
    worst_rel = 0.0
    for _ in range(10):
        yt = fiber(rng, 2)
        hess = chart.lagrangian_in_chart(yt).hess_xt
        p = bundle_point(chart.base, yt)
        target = (2.0 / 3.0) * np.einsum(
            "d,am,mbd->ab", yt, model.l_metric(p), conn.evaluate(p).R
        )
        den = max(np.abs(target).max(), 1e-12)
        worst_rel = max(worst_rel, np.abs(hess - target).max() / den)

    # flat model in curved coordinates: the Hessian is absolutely zero
    chart = chart_at("polar2d", model_for("polar2d").center(), "standard")
    rng = np.random.default_rng([203, 1])
    worst_abs = 0.0
    for _ in range(10):
        worst_abs = max(
            worst_abs, np.abs(chart.lagrangian_in_chart(fiber(rng, 2)).hess_xt).max()
        )

    label, residual, tolerance = _dominant([
        ("sphere2d relative", worst_rel, 1e-4),
        ("polar2d absolute", worst_abs, 1e-6),
    ])
    emit("standard-chart Hessian is the curvature term", residual, tolerance,
         f"worst: {label}; sphere rel {worst_rel:.2e}, polar abs {worst_abs:.2e}")


def test_c04_velocity_rescaling_reparametrizes(emit):
    model, conn = model_for("sphere2d"), conn_for("sphere2d")
    rng = np.random.default_rng([204])
    worst = 0.0
    for _ in range(20):
        x0 = model.draw_inner_x(rng)
        u = fiber(rng, 2, 0.2, 0.35)
        v = fiber(rng, 2)
        ref = integrate_horizontal_autoparallel(conn, x0, u, v, 2.0, TIGHT)
        for alpha in (0.25, 0.5, 2.0):
            end = integrate_horizontal_autoparallel(
                conn, x0, alpha * u, v, 1.0, TIGHT
            ).endpoint
            at = ref.state(alpha)
            worst = max(
                worst,
                float(np.linalg.norm(np.concatenate([end.x - at.x, end.y - at.y]))),
            )
    emit("velocity rescaling reparametrizes the flow", worst, 1e-8,
         "sphere2d, 20 seeds, alpha in {1/4, 1/2, 2}")


def test_c05_exp_map_derivative_blocks(emit):
    block_worst = 0.0
    zero_worst = 0.0
    h1, h2 = 1e-2, 1e-3
    w2 = (h1 / h2) ** 2
    for mi, name in enumerate(("sphere2d", "randers2d", "quartic4d")):
        model, conn = model_for(name), conn_for(name)
        n = model.dimension
        rng = np.random.default_rng([205, mi])
        x0 = model.center()
        v = fiber(rng, n, 0.8, 1.2)
        d = rest_blocks(conn, x0, v)
        base = exp_map(conn, x0, np.zeros(n), v, TIGHT)
        zero_worst = max(zero_worst, np.abs(base.x - x0).max(), np.abs(base.y - v).max())

        def diff_u(h, w):
            p = exp_map(conn, x0, h * w, v, TIGHT)
            m = exp_map(conn, x0, -h * w, v, TIGHT)
            return (p.x - m.x) / (2 * h), (p.y - m.y) / (2 * h)

        def diff_v(h, w):
            p = exp_map(conn, x0, np.zeros(n), v + h * w, TIGHT)
            m = exp_map(conn, x0, np.zeros(n), v - h * w, TIGHT)
            return (p.x - m.x) / (2 * h), (p.y - m.y) / (2 * h)

        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            for diff, bx, by in ((diff_u, d.dx_du, d.dy_du), (diff_v, d.dx_dv, d.dy_dv)):
                a, b = diff(h1, e), diff(h2, e)
                fx = (b[0] * w2 - a[0]) / (w2 - 1.0)
                fy = (b[1] * w2 - a[1]) / (w2 - 1.0)
                block_worst = max(
                    block_worst,
                    np.abs(fx - bx[:, j]).max() / (1.0 + np.abs(bx).max()),
                    np.abs(fy - by[:, j]).max() / (1.0 + np.abs(by).max()),
                )

        for _ in range(2 if n == 2 else 1):
            w = rng.standard_normal(n)
            w /= np.linalg.norm(w)

            def dir2(h):
                p, m = exp_map(conn, x0, h * w, v, TIGHT), exp_map(conn, x0, -h * w, v, TIGHT)
                return (p.x - 2 * base.x + m.x) / h**2, (p.y - 2 * base.y + m.y) / h**2

            a1, a2 = dir2(2e-2), dir2(1e-2)
            fd_x, fd_y = (4 * a2[0] - a1[0]) / 3, (4 * a2[1] - a1[1]) / 3
            cl_x = np.einsum("qbc,b,c->q", d.d2x_duu, w, w)
            cl_y = np.einsum("qbc,b,c->q", d.d2y_duu, w, w)
            block_worst = max(
                block_worst,
                np.abs(fd_x - cl_x).max() / (1.0 + np.abs(cl_x).max()),
                np.abs(fd_y - cl_y).max() / (1.0 + np.abs(cl_y).max()),
            )

            def dir3(h):
                p2, p1 = exp_map(conn, x0, 2 * h * w, v, TIGHT), exp_map(conn, x0, h * w, v, TIGHT)
                m1, m2 = exp_map(conn, x0, -h * w, v, TIGHT), exp_map(conn, x0, -2 * h * w, v, TIGHT)
                return (p2.x - 2 * p1.x + 2 * m1.x - m2.x) / (2 * h**3)

            b1, b2 = dir3(4e-2), dir3(2e-2)
            fd_3 = (4 * b2 - b1) / 3
            cl_3 = np.einsum("qbcd,b,c,d->q", d.d3x_duuu, w, w, w)
            block_worst = max(
                block_worst, np.abs(fd_3 - cl_3).max() / (1.0 + np.abs(cl_3).max())
            )

    label, residual, tolerance = _dominant([
        ("derivative blocks vs FD", block_worst, 1e-5),
        ("zero-velocity identity", zero_worst, 1e-12),
    ])
    emit("exponential-map derivative blocks", residual, tolerance,
         f"worst: {label}; blocks {block_worst:.2e}, zero-vel {zero_worst:.2e}")


def test_c06_structural_identity_suite(emit):
    tols = {
        "horizontal constancy of L": 1e-10,
        "curvature annihilates grad L": 1e-8,
        "cyclic curvature sum": 1e-8,
        "fiber symmetry of dN/dy": 1e-10,
        "fiber homogeneity of N": 1e-10,
        "Euler degree relation": 1e-12,
        "spray contraction": 1e-9,
    }
    worst = dict.fromkeys(tols, 0.0)
    for mi, name in enumerate(builtin_names()):
        model, conn = model_for(name), conn_for(name)
        n, r = model.dimension, model.homogeneity_degree
        rng = np.random.default_rng([206, mi])
        for _ in range(200):
            p = model.draw_point(rng)
            ev = conn.evaluate(p)
            jet = model.taylor(p, 1)

            def unit(v):
                e = [0] * (2 * n)
                e[v] = 1
                return tuple(e)

            gx = np.array([jet_partial(jet, unit(a)) for a in range(n)])
            gy = np.array([jet_partial(jet, unit(n + a)) for a in range(n)])
            value = model.evaluate(p)

            euler = abs(float(gy @ p.y) - r * value) / (1.0 + abs(r * value))
            worst["Euler degree relation"] = max(worst["Euler degree relation"], euler)

            vertical = ev.N.T @ gy
            scale = 1.0 + np.abs(gx).max() + np.abs(vertical).max()
            worst["horizontal constancy of L"] = max(
                worst["horizontal constancy of L"], np.abs(gx - vertical).max() / scale
            )

            sym = np.abs(ev.dN_y - np.transpose(ev.dN_y, (0, 2, 1))).max()
            worst["fiber symmetry of dN/dy"] = max(
                worst["fiber symmetry of dN/dy"], sym / (1.0 + np.abs(ev.dN_y).max())
            )

            for lam in (0.5, 2.0):
                scaled = conn.coefficients(bundle_point(p.x, lam * p.y))
                gap = np.abs(scaled - lam * ev.N).max()
                worst["fiber homogeneity of N"] = max(
                    worst["fiber homogeneity of N"],
                    gap / ((1.0 + np.abs(ev.N).max()) * max(1.0, lam)),
                )

            G = cartan_linear_delta(model, p)
            spray_gap = np.abs(np.einsum("abc,b->ac", G, p.y) - ev.N).max()
            worst["spray contraction"] = max(
                worst["spray contraction"], spray_gap / (1.0 + np.abs(ev.N).max())
            )

            contraction = np.einsum("rbc,r->bc", ev.R, gy)
            worst["curvature annihilates grad L"] = max(
                worst["curvature annihilates grad L"],
                np.abs(contraction).max() / (1.0 + np.abs(ev.R).max() * np.abs(gy).max()),
            )

            g = model.l_metric(p)
            R_low = np.einsum("am,mbd->abd", g, ev.R)
            cyclic = R_low + np.transpose(R_low, (1, 2, 0)) + np.transpose(R_low, (2, 0, 1))
            worst["cyclic curvature sum"] = max(
                worst["cyclic curvature sum"],
                np.abs(cyclic).max() / (1.0 + np.abs(R_low).max()),
            )

    label, residual, tolerance = _dominant(
        [(k, worst[k], tols[k]) for k in tols]
    )
    emit("structural identities, 200 points x 5 models", residual, tolerance,
         f"worst: {label}")


def test_c07_quadratic_models_reduce_to_levi_civita(emit):
    lc_worst = 0.0
    indep_worst = 0.0
    straight_worst = 0.0
    straight_bases = {"polar2d": np.array([1.3, 0.2]), "sphere2d": SPHERE_BASE}
    for mi, name in enumerate(("polar2d", "sphere2d")):
        model, conn = model_for(name), conn_for(name)
        rng = np.random.default_rng([207, mi])

        for _ in range(20):
            x = model.draw_inner_x(rng)
            y = fiber(rng, 2)
            N = conn.coefficients(bundle_point(x, y))
            N_lc = np.einsum("abc,c->ab", fd_levi_civita(model, x), y)
            lc_worst = max(lc_worst, np.abs(N - N_lc).max() / (1.0 + np.abs(N).max()))

        for _ in range(5):
            x = model.draw_inner_x(rng)
            ref_D = conn.berwald(bundle_point(x, fiber(rng, 2)))
            ref_G = cartan_linear_delta(model, bundle_point(x, fiber(rng, 2)))
            for _ in range(9):
                p = bundle_point(x, fiber(rng, 2))
                indep_worst = max(
                    indep_worst,
                    np.abs(conn.berwald(p) - ref_D).max() / (1.0 + np.abs(ref_D).max()),
                    np.abs(cartan_linear_delta(model, p) - ref_G).max()
                    / (1.0 + np.abs(ref_G).max()),
                )

        chart = chart_at(name, straight_bases[name], "standard")
        traj = integrate_autoparallel(conn, chart.base, [0.25, -0.15], 0.75, TIGHT)
        ray = None
        for t in (0.25, 0.5, 0.75):
            xt, _ = chart.from_manifold(traj.state(t))
            if ray is None:
                ray = xt / t
            else:
                straight_worst = max(straight_worst, np.abs(xt / t - ray).max())

    label, residual, tolerance = _dominant([
        ("N vs FD Levi-Civita", lc_worst, 1e-8),
        ("y-independence of D and delta-Christoffel", indep_worst, 1e-9),
        ("straight geodesics in standard chart", straight_worst, 1e-8),
    ])
    emit("quadratic models reduce to Levi-Civita", residual, tolerance,
         f"worst: {label}")


def test_c08_series_convergence_orders(emit):
    che = chart_at("sphere2d", SPHERE_BASE, "extended")
    chs = chart_at("sphere2d", SPHERE_BASE, "standard")
    yt = SPHERE_YT

    def err_x(s):
        xt = s * PROBE_DIR
        return np.abs(che.series_forward(xt, yt, 3).x - che.to_manifold(xt, yt).x).max()

    def err_y(s):
        xt = s * PROBE_DIR
        return np.abs(che.series_forward(xt, yt, 2).y - che.to_manifold(xt, yt).y).max()

    def kind_gap(s):
        xt = s * PROBE_DIR
        a = che.to_manifold(xt, yt).as_state()
        b = chs.to_manifold(xt, yt).as_state()
        return np.abs(a - b).max()

    rx = err_x(0.2) / err_x(0.1)
    ry = err_y(0.2) / err_y(0.1)
    rg = kind_gap(0.2) / kind_gap(0.1)
    residual = max(_outside(rx, 12.0, 20.0), _outside(ry, 6.0, 10.0),
                   _outside(rg, 3.2, 5.0))
    emit("series truncation error decays at its order", residual, 0.0,
         f"x {rx:.2f} in [12,20], y {ry:.2f} in [6,10], kinds {rg:.2f} in [3.2,5]")


def test_c09_flat_model_is_exact(emit):
    model, conn = model_for("flat4d"), conn_for("flat4d")
    rng = np.random.default_rng([209])
    tensor_worst = 0.0
    for _ in range(25):
        p = model.draw_point(rng)
        ev = conn.evaluate(p)
        tensor_worst = max(
            tensor_worst,
            np.abs(ev.N).max(),
            np.abs(ev.R).max(),
            np.abs(conn.berwald(p)).max(),
            np.abs(cartan_linear_delta(model, p)).max(),
        )

    x0 = model.center()
    charts = [chart_at("flat4d", x0, kind) for kind in ("extended", "standard")]
    map_worst = 0.0
    for _ in range(5):
        u = fiber(rng, 4, 0.2, 0.4)
        v = fiber(rng, 4)
        end = exp_map(conn, x0, u, v, TIGHT)
        map_worst = max(map_worst, np.abs(end.x - (x0 + u)).max(), np.abs(end.y - v).max())
        for chart in charts:
            q = chart.to_manifold(u, v)
            map_worst = max(map_worst, np.abs(q.x - (x0 + u)).max(), np.abs(q.y - v).max())
            xt, yt = chart.from_manifold(bundle_point(x0 + u, v))
            map_worst = max(map_worst, np.abs(xt - u).max(), np.abs(yt - v).max())

    label, residual, tolerance = _dominant([
        ("connection tensors", tensor_worst, 1e-13),
        ("shift maps", map_worst, 1e-10),
    ])
    emit("flat model is exact", residual, tolerance,
         f"worst: {label}; tensors {tensor_worst:.2e}, maps {map_worst:.2e}")


def test_c10_chart_round_trip(emit):
    worst = 0.0
    for mi, name in enumerate(("sphere2d", "randers2d")):
        base = model_for(name).center()
        for kind in ("extended", "standard"):
            chart = chart_at(name, base, kind)
            rng = np.random.default_rng([210, mi])
            for _ in range(50):
                dx = rng.standard_normal(2)
                dx *= 0.3 * rng.random() / np.linalg.norm(dx)
                p = bundle_point(chart.base + dx, fiber(rng, 2))
                xt, yt = chart.from_manifold(p)
                q = chart.to_manifold(xt, yt)
                worst = max(worst, np.abs(q.x - p.x).max(), np.abs(q.y - p.y).max())
    emit("chart round trip reproduces bundle points", worst, 1e-8,
         "sphere2d+randers2d, 50 points each, both kinds")


def test_c11_curvature_survives_chart_transport(emit):
    model, conn = model_for("sphere2d"), conn_for("sphere2d")
    chart = chart_at("sphere2d", SPHERE_BASE, "standard")
    rng = np.random.default_rng([211])
    worst = 0.0
    for _ in range(5):
        yt = fiber(rng, 2)
        in_chart = chart.curvature_in_chart(yt)
        ambient = conn.evaluate(bundle_point(chart.base, yt)).R
        worst = max(worst, np.abs(in_chart - ambient).max() / np.abs(ambient).max())
    emit("curvature agrees across the chart transport", worst, 1e-4,
         "sphere2d standard kind, 5 fibers")


def test_c12_verification_reports_are_byte_identical(emit):
    first = report_to_json(run_verification("builtin:randers2d", seed=7, budget="quick"))
    second = report_to_json(run_verification("builtin:randers2d", seed=7, budget="quick"))
    identical = first == second
    doc = json.loads(first)
    assert doc["schema_version"] == 1
    emit("verification reports are byte-identical", 0.0 if identical else 1.0, 0.0,
         f"randers2d quick seed 7, {len(first.encode())} bytes, all_passed={doc['all_passed']}")
