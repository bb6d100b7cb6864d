"""Lagrangian families: values, L-metric, homogeneity, validation verdicts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import ModelFormatError, NearZeroDirection, NonFiniteField, bundle_point
from finslerkit.lagrangian import FinslerLagrangian
from finslerkit.models import BUILTIN_MODELS, load_model, save_model

from fd_oracles import richardson_hessian
from jet_oracles import jet_partial


def test_flat_quadratic_value():
    model = load_model("builtin:flat4d")
    p = bundle_point([0, 0, 0, 0], [2, 1, 1, 1])
    assert model.evaluate(p) == pytest.approx(4 - 1 - 1 - 1, abs=1e-15)
    g = model.l_metric(p)
    assert np.allclose(g, np.diag([1, -1, -1, -1]), atol=1e-14)


def test_polar_plane_value_and_metric():
    model = load_model("builtin:polar2d")
    p = bundle_point([2.0, 0.3], [1.0, 1.0])
    # L = y_r^2 + r^2 y_th^2 = 1 + 4
    assert model.evaluate(p) == pytest.approx(5.0, rel=1e-15)
    assert np.allclose(model.l_metric(p), np.diag([1.0, 4.0]), atol=1e-13)


def test_randers_reference_value():
    # identity spatial part and constant one-form (0.1, 0): L(y=(1,0)) = 1.21
    model = FinslerLagrangian(
        2,
        2,
        "randers",
        {"metric": [["1", "0"], ["0", "1"]], "one_form": ["0.1", "0"], "exponent": 2},
    )
    p = bundle_point([0.0, 0.0], [1.0, 0.0])
    assert model.evaluate(p) == pytest.approx(1.21, rel=1e-14)
    # builtin agrees wherever its one-form aligns with (0.1, 0)
    builtin = load_model("builtin:randers2d")
    q = bundle_point([0.7, 0.0], [1.0, 0.0])
    assert builtin.evaluate(q) == pytest.approx(1.21, rel=1e-14)


def test_quartic_value_and_positive_definite_metric():
    model = load_model("builtin:quartic4d")
    p = bundle_point([0, 0, 0, 0], [1.0, 0.5, -0.25, 0.125])
    y2 = 1 + 0.25 + 0.0625 + 0.015625
    y4 = 1 + 0.5**4 + 0.25**4 + 0.125**4
    assert model.evaluate(p) == pytest.approx((y2**2 + y4) / 2, rel=1e-14)
    eig = np.linalg.eigvalsh(model.l_metric(p))
    assert (eig > 0).all()


def test_l_metric_matches_fd_hessian_on_randers():
    model = load_model("builtin:randers2d")
    p = bundle_point([0.3, -0.8], [1.2, 0.5])

    def half_l_of_y(y):
        return 0.5 * model.evaluate(bundle_point(p.x, y))

    fd = richardson_hessian(half_l_of_y, p.y.copy(), 1e-4, 5e-5)
    assert np.allclose(model.l_metric(p), fd, atol=5e-8)


def test_zero_direction_guard_for_non_quadratic():
    model = load_model("builtin:randers2d")
    with pytest.raises(NearZeroDirection):
        model.l_metric(bundle_point([0.0, 0.0], [0.0, 1e-13]))
    # quadratic families stay regular on the zero section
    quad = load_model("builtin:flat4d")
    g = quad.l_metric(bundle_point([0, 0, 0, 0], [0, 0, 0, 0]))
    assert np.allclose(g, np.diag([1, -1, -1, -1]))


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(0.25, 4.0),
    y1=st.floats(0.2, 2.0),
    y2=st.floats(-2.0, -0.2),
)
def test_homogeneity_property_across_families(lam, y1, y2):
    for name, degree in [("polar2d", 2), ("randers2d", 2)]:
        model = load_model(f"builtin:{name}")
        p = bundle_point([1.3, 0.4], [y1, y2])
        scaled = bundle_point(p.x, lam * p.y)
        lhs = model.evaluate(scaled)
        rhs = lam**degree * model.evaluate(p)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_euler_identity_quartic():
    model = load_model("builtin:quartic4d")
    p = bundle_point([0.2, -0.4, 0.1, 0.6], [0.9, -0.3, 0.55, 1.1])
    jet = model.taylor(p, 1)
    n = 4
    euler = 0.0
    for a in range(n):
        alpha = [0] * 8
        alpha[n + a] = 1
        euler += p.y[a] * jet_partial(jet, tuple(alpha))
    assert euler == pytest.approx(4 * model.evaluate(p), rel=1e-12)


def test_finsler_function_is_one_homogeneous():
    model = load_model("builtin:quartic4d")
    p = bundle_point([0.1, 0.0, 0.0, -0.2], [1.0, 0.4, -0.7, 0.2])
    # F = |L|^(1/r), the positively 1-homogeneous length integrand
    def finsler_function(q):
        return abs(model.evaluate(q)) ** (1.0 / model.homogeneity_degree)

    f1 = finsler_function(p)
    f3 = finsler_function(bundle_point(p.x, 3.0 * p.y))
    assert f3 == pytest.approx(3.0 * f1, rel=1e-12)


def test_validation_flat_minkowski_passes_everything():
    model = load_model("builtin:flat4d")
    report = model.validate_spacetime(200, 1)
    assert report["all_passed"], report
    assert report["conditions"]["signature"]["checked"] > 0
    assert "+---" in report["signature_tally"]


def test_validation_detects_irreversibility_of_randers():
    model = load_model("builtin:randers2d")
    report = model.validate_spacetime(120, 3)
    conditions = report["conditions"]
    assert not conditions["reversible"]["passed"]
    assert conditions["reversible"]["witnesses"]
    assert conditions["homogeneous"]["passed"]
    assert conditions["nondegenerate"]["passed"]


def test_validation_flags_degenerate_metric():
    # L = (y1)^4 in two dimensions has det g^L = 0 everywhere
    model = FinslerLagrangian(2, 4, "pth_root", {"form": "y1^4", "p": 4})
    report = model.validate_spacetime(60, 5)
    assert not report["conditions"]["nondegenerate"]["passed"]
    assert report["conditions"]["nondegenerate"]["witnesses"]


def test_validation_signature_fails_for_riemannian_surface():
    model = load_model("builtin:sphere2d")
    report = model.validate_spacetime(80, 2)
    assert report["conditions"]["nondegenerate"]["passed"]
    assert not report["conditions"]["signature"]["passed"]
    assert set(report["signature_tally"]) == {"++"}


def test_a_root_of_a_negative_coordinate_is_a_non_finite_field():
    model = FinslerLagrangian(2, 2, "custom", {"expression": "(y1^2+y2^2)*(2 + sqrt(x1))"})
    assert model.evaluate(bundle_point([0.25, 0.0], [1.0, 0.0])) == 2.5
    with pytest.raises(NonFiniteField, match=r"sqrt of negative value -5\.000e-01"):
        model.evaluate(bundle_point([-0.5, 0.0], [1.0, 0.0]))


def test_model_round_trip_through_json(tmp_path):
    for name, doc in BUILTIN_MODELS.items():
        model = load_model(f"builtin:{name}")
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        again = load_model(str(path))
        assert again.to_dict() == model.to_dict()
        p = bundle_point(
            np.linspace(0.7, 0.9, model.dimension), np.linspace(1.0, 1.5, model.dimension)
        )
        assert again.evaluate(p) == model.evaluate(p)


def test_model_document_validation_errors(tmp_path):
    with pytest.raises(ModelFormatError):
        FinslerLagrangian.from_dict({"dimension": 2, "family": "quadratic"})
    with pytest.raises(ModelFormatError):
        FinslerLagrangian(2, 1, "quadratic", {"metric": [["1", "0"], ["0", "1"]]})
    with pytest.raises(ModelFormatError):
        FinslerLagrangian(2, 2, "quadratic", {"metric": [["1", "0"]]})
    with pytest.raises(ModelFormatError):
        FinslerLagrangian(2, 2, "quadratic", {"metric": [["1", "x9"], ["0", "1"]]})
    with pytest.raises(ModelFormatError):
        FinslerLagrangian(2, 2, "nosuchfamily", {})
    with pytest.raises(ModelFormatError):
        load_model(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(str(bad))


def _box_as_written_per_site(model):
    """The box logic each sampler and chart center once carried inline."""
    dom = model.domain or {}
    n = model.dimension
    lo = np.asarray(dom.get("x_min", [-1.0] * n), float)
    hi = np.asarray(dom.get("x_max", [1.0] * n), float)
    return dom, lo, hi


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
def test_domain_box_draws_are_bit_identical_to_the_per_site_boxes(name):
    model = load_model(f"builtin:{name}")
    n = model.dimension
    dom, lo, hi = _box_as_written_per_site(model)
    band_lo, band_hi = dom.get("y_norm", (0.5, 2.0))

    mine, theirs = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(6):
        p = model.draw_point(mine)
        x = lo + (hi - lo) * theirs.random(n)
        direction = theirs.standard_normal(n)
        y = direction / np.linalg.norm(direction) * (band_lo + (band_hi - band_lo) * theirs.random())
        assert p.x.tobytes() == x.tobytes() and p.y.tobytes() == y.tobytes()
        inner = lo + (0.25 + 0.5 * theirs.random(n)) * (hi - lo)
        assert model.draw_inner_x(mine).tobytes() == inner.tobytes()
    assert model.center().tobytes() == (0.5 * (lo + hi)).tobytes()


def test_domain_box_is_checked_at_load():
    doc = dict(BUILTIN_MODELS["sphere2d"], domain={"x_min": [0.0], "x_max": [1.0, 2.0, 3.0]})
    with pytest.raises(ModelFormatError, match="domain x_min"):
        load_model(doc)
    doc["domain"] = {"x_min": [0.0, 1.0], "x_max": [1.0, 1.0]}
    with pytest.raises(ModelFormatError, match="domain x_min"):
        load_model(doc)
    doc["domain"] = {"x_max": [1.0, "wide"]}
    with pytest.raises(ModelFormatError, match="domain x_max"):
        load_model(doc)
    # no domain block: the box is [-1, 1]^2
    mine, theirs = np.random.default_rng(3), np.random.default_rng(3)
    inner = -1.0 + (0.25 + 0.5 * theirs.random(2)) * 2.0
    assert load_model(dict(doc, domain=None)).draw_inner_x(mine).tobytes() == inner.tobytes()


def test_callable_backed_model():
    def lag(xs, ys):
        return ys[0] * ys[0] + xs[0] * 0.0

    model = FinslerLagrangian.from_callable(lag, 2, 2)
    assert model.evaluate(bundle_point([0.5, 0.5], [3.0, 1.0])) == 9.0
    with pytest.raises(ModelFormatError):
        model.to_dict()


def test_lagrangian_errors_name_their_point():
    p = bundle_point([0.5, -0.25], [0.25, 2.0])
    at = r"at x = \[0.5, -0.25\], y = \[0.25, 2.0\]"

    def custom(expression):
        return FinslerLagrangian.from_dict(
            {"dimension": 2, "homogeneity_degree": 2, "family": "custom",
             "parameters": {"expression": expression}}
        )

    with np.errstate(all="ignore"), pytest.raises(NonFiniteField, match="Lagrangian value is not finite " + at):
        custom("1e200 * y2^2 * 1e200").evaluate(p)
    # finite coefficients whose Hessian entry 2 * 1e308 is not
    with np.errstate(all="ignore"), pytest.raises(NonFiniteField, match="L-metric has non-finite entries " + at):
        custom("1e308 * y1^2 + y2^2").l_metric(p)


def test_input_jets_from_two_spaces_are_refused():
    # the tape seeds one space's slots per input: a fiber one order below the
    # base is restricted by the caller first, never passed as it is
    from finslerkit.jets import JetSpace

    model = load_model("builtin:sphere2d")
    base, fiber = JetSpace.get(2, 3), JetSpace.get(2, 2)
    xs = [base.variable(0, 1.1), base.variable(1, 0.3)]
    with pytest.raises(ValueError, match="one jet space"):
        model(xs, [fiber.constant(0.8), fiber.constant(-0.5)])
    jet = model(xs, [base.constant(0.8), base.constant(-0.5)])
    assert jet.value == pytest.approx(0.64 + math.sin(1.1) ** 2 * 0.25, rel=1e-15)
