"""Report-level properties of the verify registry.

Every applicable row runs on every builtin and measures all of its samples,
the series rows compare exact Taylor coefficients (so they pass at every
report seed and catch a 1% error in one series term), and 4-d models get the
chart rows that 2-d models get.
"""

import functools

import numpy as np
import pytest

from finslerkit import verify
from finslerkit.bundle import bundle_point
from finslerkit.charts import AutoparallelChart
from finslerkit.connection import GeneralConnection
from finslerkit.jets import JetSpace
from finslerkit.models import BUILTIN_MODELS, builtin_names, load_model

from jet_oracles import count_kernel_calls

ALWAYS = {
    "euler-degree", "horizontal-constancy", "fiber-symmetry", "connection-homogeneity",
    "spray-contraction", "curvature-annihilation", "curvature-cyclic-sum",
    "velocity-rescaling", "exp-zero-velocity", "exp-derivative-blocks",
    "chart-center-connection-extended", "chart-center-connection-standard",
    "chart-lagrangian-flatness", "chart-hessian-curvature",
    "chart-round-trip-extended", "chart-round-trip-standard", "chart-curvature-invariance",
    "series-order-cubic", "series-order-quadratic", "series-kind-gap",
}
QUADRATIC = {"levi-civita-reduction", "berwald-y-independence", "chart-straight-geodesics"}
FLAT = {"flat-connection-tensors", "flat-shift-maps"}


@functools.cache
def quick_report(name: str) -> dict:
    return verify.run_verification(f"builtin:{name}", seed=0, budget="quick")


def series_rows(name: str, seed: int) -> dict:
    model = load_model(f"builtin:{name}")
    conn = GeneralConnection.cartan(model)
    ctx = verify._Ctx(
        name, model, conn, seed, verify._counts("quick"), verify._is_flat(model, conn)
    )
    return {row["id"]: row for row in verify._check_series_orders(ctx)}


def test_sphere2d_quick_report_passes_at_the_default_seed():
    report = quick_report("sphere2d")
    assert report["all_passed"], [row["id"] for row in report["checks"] if not row["passed"]]


# sphere2d seeds at which the truncation error at s = 0.1 and 0.05 is not yet
# in its asymptotic range, so an observed order is not the series order there
@pytest.mark.parametrize("seed", [0, 11, 27, 64, 85, 86, 99])
def test_series_rows_pass_at_every_report_seed(seed):
    rows = series_rows("sphere2d", seed)
    assert set(rows) == {"series-order-cubic", "series-order-quadratic", "series-kind-gap"}
    assert all(row["passed"] and row["samples"] == 1 for row in rows.values()), rows


@pytest.mark.parametrize("name", ["quartic4d", "flat4d"])
def test_four_dimensional_reports_hold_every_chart_row(name):
    ids = {row["id"] for row in quick_report(name)["checks"]}
    assert {
        "chart-hessian-curvature", "chart-curvature-invariance",
        "chart-round-trip-extended", "chart-round-trip-standard",
        "chart-center-connection-standard", "series-kind-gap",
    } <= ids


@pytest.mark.parametrize("name", builtin_names())
def test_every_applicable_row_runs_and_measures_its_samples(name):
    model = load_model(f"builtin:{name}")
    expected = set(ALWAYS)
    if model.family == "quadratic":
        expected |= QUADRATIC
    if name == "flat4d":
        expected |= FLAT
    rows = quick_report(name)["checks"]
    assert {row["id"] for row in rows} == expected
    assert all(row["samples"] >= 1 for row in rows)


@pytest.mark.parametrize("name", ["sphere2d", "polar2d", "flat4d"])
def test_berwald_row_counts_its_comparisons(name):
    # the first fiber at each base is the reference the others are compared with
    counts = verify._counts("quick")
    row = next(r for r in quick_report(name)["checks"] if r["id"] == "berwald-y-independence")
    assert row["samples"] == counts["berwald_bases"] * (counts["berwald_fibers"] - 1) == 4


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["sphere2d", "randers2d", "quartic4d"])
def test_series_rows_catch_a_one_percent_cubic_error(monkeypatch, name, seed):
    exact = AutoparallelChart.series_forward

    def mutant(self, xt, yt, order):
        out = exact(self, xt, yt, order)
        if order < 3:
            return out
        quadratic = exact(self, xt, yt, 2)
        return bundle_point(quadratic.x + 0.99 * (out.x - quadratic.x), out.y)

    monkeypatch.setattr(AutoparallelChart, "series_forward", mutant)
    rows = series_rows(name, seed)
    assert not rows["series-order-cubic"]["passed"]
    assert rows["series-order-quadratic"]["passed"] and rows["series-kind-gap"]["passed"]


@pytest.mark.parametrize("name", ["sphere2d", "quartic4d"])
def test_the_rest_flow_reference_evaluates_the_connection_once(name):
    # every stage of the unit step at rest reads N's jet at (base, v)
    model = load_model(f"builtin:{name}")
    conn = GeneralConnection.cartan(model)
    n = model.dimension
    rng = np.random.default_rng(4)
    base, v = model.draw_inner_x(rng), model.draw_fiber(rng)
    orders = count_kernel_calls(conn)
    for space, u_seed, v_seed in (
        (JetSpace.get(n, 3), 0, None),
        (JetSpace.get(2 * n, 3, n, 1), n, 0),
    ):
        del orders[:]
        verify._rest_flow_jets(conn, base, v, space, u_seed, v_seed)
        assert orders == [3]


def test_fiber_draws_take_the_model_band(monkeypatch):
    # every chart row draws its fibers from the model's declared y_norm band
    doc = dict(BUILTIN_MODELS["sphere2d"])
    doc["domain"] = dict(doc["domain"], y_norm=[0.9, 1.1])
    seen = []
    connection_in_chart = AutoparallelChart.connection_in_chart
    lagrangian_in_chart = AutoparallelChart.lagrangian_in_chart

    def record_connection(self, xt, yt):
        seen.append(float(np.linalg.norm(yt)))
        return connection_in_chart(self, xt, yt)

    def record_lagrangian(self, yt):
        seen.append(float(np.linalg.norm(yt)))
        return lagrangian_in_chart(self, yt)

    monkeypatch.setattr(AutoparallelChart, "connection_in_chart", record_connection)
    monkeypatch.setattr(AutoparallelChart, "lagrangian_in_chart", record_lagrangian)
    verify.run_verification(doc, seed=0, budget="quick")
    assert seen and all(0.9 <= norm <= 1.1 for norm in seen), seen
