"""Taylor-jet engine: exactness on polynomials, FD cross-checks, error paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import NonFiniteField, OrderUnsupported, bundle_point, eval_jet
from finslerkit.jets import JetSpace, TaylorJet, compose, eval_taylor, sin, sqrt

from fd_oracles import central_gradient, richardson_hessian


def quadratic_fiber(xs, ys):
    # L = (y1)^2 in 2 manifold dimensions
    return ys[0] * ys[0]


def test_polynomial_fiber_square_is_exact():
    p = bundle_point([0.3, -1.2], [0.7, 2.0])
    jet = eval_jet(quadratic_fiber, p, 2)
    assert jet.value == 0.7 * 0.7
    assert jet.partial(y=(0, 0)) == 2.0
    assert jet.partial(y=(0,)) == 2.0 * 0.7
    assert jet.partial(x=(0,)) == 0.0
    assert jet.partial(x=(1,), y=(0,)) == 0.0


def test_mixed_cubic_polynomial_exact():
    # f = x1 * y2^2: the only surviving third partial is d_x1 d_y2 d_y2 f = 2
    def f(xs, ys):
        return xs[0] * ys[1] * ys[1]

    p = bundle_point([2.0, 0.5], [1.5, -0.25])
    jet = eval_jet(f, p, 3)
    assert jet.partial(x=(0,), y=(1, 1)) == 2.0
    assert jet.partial(y=(1, 1)) == 2.0 * 2.0
    assert jet.partial(x=(0,), y=(1,)) == 2.0 * (-0.25)
    assert jet.partial(x=(0, 0)) == 0.0


def test_transcendental_field_against_closed_form():
    # f = sin(x1) * y1: d_x1 d_x1 d_y1 f = -sin(x1)
    def f(xs, ys):
        return sin(xs[0]) * ys[0]

    p = bundle_point([0.7, 0.0], [1.0, 0.0])
    jet = eval_jet(f, p, 3)
    assert jet.partial(x=(0, 0), y=(0,)) == pytest.approx(-math.sin(0.7), rel=1e-14)
    assert jet.value == pytest.approx(math.sin(0.7), rel=1e-14)


def test_gradient_matches_finite_differences():
    def f(xs, ys):
        return sin(xs[0] * ys[1]) + sqrt(3.0 + xs[1] * xs[1]) * ys[0]

    p = bundle_point([0.4, -0.9], [1.1, 0.6])
    jet = eval_jet(f, p, 1)

    def flat(z):
        x, y = z[:2], z[2:]
        return math.sin(x[0] * y[1]) + math.sqrt(3.0 + x[1] ** 2) * y[0]

    z0 = p.as_state()
    fd = central_gradient(flat, z0, 1e-6)
    exact = np.array(
        [jet.partial(x=(0,)), jet.partial(x=(1,)), jet.partial(y=(0,)), jet.partial(y=(1,))]
    )
    assert np.allclose(exact, fd, atol=5e-10)


def test_hessian_matches_richardson_finite_differences():
    def f(xs, ys):
        from finslerkit.jets import exp

        return exp(0.2 * xs[0]) * ys[0] * ys[0] + xs[1] * ys[1] * ys[0]

    p = bundle_point([0.25, 1.4], [0.8, -0.3])
    jet = eval_jet(f, p, 2)

    def flat(z):
        x, y = z[:2], z[2:]
        return math.exp(0.2 * x[0]) * y[0] ** 2 + x[1] * y[1] * y[0]

    z0 = p.as_state()
    fd = richardson_hessian(flat, z0, 1e-4, 5e-5)
    vars2 = [("x", 0), ("x", 1), ("y", 0), ("y", 1)]
    for i, (kindi, idxi) in enumerate(vars2):
        for j, (kindj, idxj) in enumerate(vars2):
            spec = {"x": [], "y": []}
            spec[kindi].append(idxi)
            spec[kindj].append(idxj)
            exact = jet.partial(x=tuple(spec["x"]), y=tuple(spec["y"]))
            assert exact == pytest.approx(fd[i, j], abs=2e-6), (kindi, idxi, kindj, idxj)


def test_fourth_order_partial_of_quartic():
    def f(xs, ys):
        return ys[0] ** 4

    p = bundle_point([0.0, 0.0], [1.3, 0.2])
    jet = eval_jet(f, p, 4)
    assert jet.partial(y=(0, 0, 0, 0)) == pytest.approx(24.0, rel=1e-13)


def test_order_cap_and_validation():
    p = bundle_point([0.0], [1.0])
    with pytest.raises(OrderUnsupported):
        eval_jet(quadratic_fiber, bundle_point([0, 0], [1, 0]), 5)
    with pytest.raises(OrderUnsupported):
        eval_jet(quadratic_fiber, bundle_point([0, 0], [1, 0]), -1)
    del p


def test_non_finite_field_detected():
    def f(xs, ys):
        return (xs[0] - 1.0).reciprocal()

    with pytest.raises((NonFiniteField, ZeroDivisionError)):
        eval_jet(f, bundle_point([1.0, 0.0], [1.0, 0.0]), 1)

    def g(xs, ys):
        from finslerkit.jets import log

        return log(xs[0])

    with pytest.raises(NonFiniteField):
        eval_jet(g, bundle_point([-2.0, 0.0], [1.0, 0.0]), 1)


def test_empty_multi_index_is_plain_value():
    def f(xs, ys):
        return 3.5 + 0.0 * xs[0]

    p = bundle_point([1.0, 2.0], [3.0, 4.0])
    jet = eval_jet(f, p, 2)
    assert jet.coefficients[(0, 0, 0, 0)] == 3.5
    assert jet.value == 3.5


def test_division_and_reciprocal_consistency():
    space = JetSpace.get(2, 4)
    u = space.variable(0, 0.6)
    v = space.variable(1, -1.1)
    f = (1.0 + u * u) / (2.0 - v)
    g = (1.0 + u * u) * (2.0 - v).reciprocal()
    assert np.allclose(f.c, g.c, atol=1e-15)


def test_integer_power_matches_repeated_product():
    space = JetSpace.get(2, 4)
    u = 0.5 + space.variable(0, 0.3)
    assert np.allclose((u**3).c, (u * u * u).c, atol=1e-14)
    assert np.allclose((u**-2).c, (u * u).reciprocal().c, atol=1e-12)


def test_powers_and_series_multiply_no_constant_jets(monkeypatch):
    space = JetSpace.get(2, 4)
    u = 0.5 + space.variable(0, 0.3)
    products = 0
    mul = TaylorJet.__mul__

    def counted(a, b):
        nonlocal products
        products += isinstance(b, TaylorJet)
        return mul(a, b)

    monkeypatch.setattr(TaylorJet, "__mul__", counted)
    # binary powers: squarings plus one product per extra set bit
    for k, expected in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
        products = 0
        power = u**k
        assert products == expected, k
        assert power is not u
    # Horner on a degree-4 series: w times the top coefficient is a scaling
    products = 0
    u.exp()
    assert products == space.order - 1
    monkeypatch.undo()
    assert np.array_equal((u**0).c, space.constant(1.0).c)
    assert np.allclose((u**5).c, (u * u * u * u * u).c, atol=1e-14)
    order0 = TaylorJet(space, 0, space.constant(0.3).c)
    assert np.array_equal(order0.exp().c, space.constant(math.exp(0.3)).c)


def test_half_power_matches_sqrt():
    space = JetSpace.get(2, 4)
    u = 1.5 + space.variable(1, 0.2)
    assert np.allclose((u**0.5).c, u.sqrt().c, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-2, 2, allow_nan=False),
    b=st.floats(-2, 2, allow_nan=False),
    x0=st.floats(-1, 1, allow_nan=False),
    y0=st.floats(0.25, 2, allow_nan=False),
)
def test_linearity_property(a, b, x0, y0):
    def f(xs, ys):
        return xs[0] * xs[0] * ys[0] + ys[0] * ys[0]

    def g(xs, ys):
        return sin(xs[0]) + ys[0]

    def combo(xs, ys):
        return a * f(xs, ys) + b * g(xs, ys)

    p = bundle_point([x0], [y0])
    jf = eval_taylor(f, p, 3)
    jg = eval_taylor(g, p, 3)
    jc = eval_taylor(combo, p, 3)
    assert np.allclose(jc.c, a * jf.c + b * jg.c, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    c0=st.floats(0.5, 3.0, allow_nan=False),
    c1=st.floats(-2, 2, allow_nan=False),
    c2=st.floats(-2, 2, allow_nan=False),
)
def test_product_rule_via_log_exp(c0, c1, c2):
    # exp(log(f)) == f for positive jets exercises compose + reciprocal chains
    space = JetSpace.get(2, 4)
    u = space.variable(0, 0.0)
    v = space.variable(1, 0.0)
    f = c0 + c1 * u + c2 * v + u * v
    back = f.log().exp()
    assert np.allclose(back.c, f.c, atol=1e-12 * max(1.0, abs(c0)))


def test_derivative_drops_order_and_matches_shift():
    space = JetSpace.get(2, 3)
    u = space.variable(0, 0.4)
    v = space.variable(1, 1.2)
    f = u * u * v  # d/du = 2uv
    d = f.deriv(0)
    assert d.order == 2
    assert d.value == pytest.approx(2 * 0.4 * 1.2, rel=1e-15)
    assert d.partial((0, 1)) == pytest.approx(2 * 0.4, rel=1e-15)
    with pytest.raises(OrderUnsupported):
        f.deriv(0).deriv(1).deriv(0).deriv(1)


def _full_table_product(space, a, b):
    """Reference product: every pair of the order-``space.order`` table, in
    i-major order, folded with bincount, then masked to the result order."""
    ia, ib, ic = [], [], []
    for i, alpha in enumerate(space.indices):
        for j, beta in enumerate(space.indices):
            gamma = tuple(p + q for p, q in zip(alpha, beta))
            if sum(gamma) <= space.order:
                ia.append(i)
                ib.append(j)
                ic.append(space.index_of[gamma])
    full = np.bincount(ic, weights=a.c[ia] * b.c[ib], minlength=space.size)
    order = min(a.order, b.order)
    return np.where(space.degrees <= order, full, 0.0)


def _dict_convolution(space, a, b):
    order = min(a.order, b.order)
    acc = {}
    for i, alpha in enumerate(space.indices):
        for j, beta in enumerate(space.indices):
            gamma = tuple(p + q for p, q in zip(alpha, beta))
            if sum(gamma) <= order:
                acc[gamma] = acc.get(gamma, 0.0) + a.c[i] * b.c[j]
    return np.array([acc.get(alpha, 0.0) for alpha in space.indices])


@st.composite
def _jet_pair(draw):
    nvars = draw(st.integers(1, 4))
    order = draw(st.integers(0, 5))
    space = JetSpace.get(nvars, order)
    coeffs = st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        min_size=space.size,
        max_size=space.size,
    )
    jets = []
    for _ in range(2):
        o = draw(st.integers(0, order))
        c = np.where(space.degrees <= o, np.array(draw(coeffs)), 0.0)
        jets.append(TaylorJet(space, o, c))
    return space, jets[0], jets[1]


@settings(max_examples=150, deadline=None)
@given(pair=_jet_pair())
def test_product_touches_only_the_needed_degrees(pair):
    space, a, b = pair
    prod = a * b
    order = min(a.order, b.order)
    assert prod.order == order
    assert prod.c.tobytes() == _full_table_product(space, a, b).tobytes()
    ref = _dict_convolution(space, a, b)
    assert np.allclose(prod.c, ref, rtol=1e-14, atol=1e-14)
    assert (prod.c[space.degrees > order] == 0.0).all()


@st.composite
def _capped_case(draw):
    nvars = draw(st.integers(1, 4))
    order = draw(st.integers(0, 5))
    capped = draw(st.integers(0, nvars))
    cap = draw(st.integers(0, order))
    full = JetSpace.get(nvars, order)
    coeffs = st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        min_size=full.size,
        max_size=full.size,
    )
    jets = []
    for _ in range(2):
        o = draw(st.integers(0, order))
        c = np.where(full.degrees <= o, np.array(draw(coeffs)), 0.0)
        jets.append(TaylorJet(full, o, c))
    return JetSpace.get(nvars, order, capped, cap), jets[0], jets[1]


@settings(max_examples=150, deadline=None)
@given(case=_capped_case())
def test_capped_space_is_exact_on_its_slots(case):
    space, a, b = case
    full = a.space
    x_degree = lambda alpha: sum(alpha[: space.capped])
    assert space.indices == [
        alpha for alpha in full.indices if x_degree(alpha) <= space.cap
    ]
    kept = np.array([full.index_of[alpha] for alpha in space.indices], dtype=np.intp)

    def restrict(jet):
        return TaylorJet(space, jet.order, jet.c[kept])

    prod = restrict(a) * restrict(b)
    assert prod.order == min(a.order, b.order)
    assert prod.c.tobytes() == (a * b).c[kept].tobytes()
    if a.order == 0:
        return
    for v in range(space.nvars):
        d = restrict(a).deriv(v)
        ref = a.deriv(v).c[kept]
        if v >= space.capped:  # uncapped: exact on every slot
            assert d.c.tobytes() == ref.tobytes()
        else:  # capped: exact below the cap, zero on it
            below = np.array([x_degree(alpha) < space.cap for alpha in space.indices])
            assert d.c[below].tobytes() == ref[below].tobytes()
            assert (d.c[~below] == 0.0).all()


def test_capped_space_sizes_and_full_space_identity():
    assert JetSpace.get(8, 5, 4, 2).size == 756
    assert JetSpace.get(8, 5, 4, 2)._mul_ia.size == 11187
    assert JetSpace.get(8, 5).size == 1287
    assert JetSpace.get(8, 5, 4, 5) is JetSpace.get(8, 5)
    assert JetSpace.get(3, 2, 0, 1) is JetSpace.get(3, 2)
    with pytest.raises(ValueError):
        JetSpace(2, 3, 3, 1)


@st.composite
def _composition_case(draw):
    nin = draw(st.integers(1, 3))
    nout = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4))
    capped = draw(st.integers(0, nout))
    out = JetSpace.get(nout, order, capped, draw(st.integers(1, order)))
    space = JetSpace.get(nin, draw(st.integers(order, order + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coef = rng.uniform(-2.0, 2.0, (2, space.size))
    inner = rng.uniform(-2.0, 2.0, (nin, out.size))
    inner[:, 0] = 0.0
    return space, out, coef, inner


@settings(max_examples=100, deadline=None)
@given(case=_composition_case())
def test_compose_is_the_polynomial_of_the_inner_jets(case):
    space, out, coef, inner = case
    got = compose(coef, space, inner, out)
    jets = [TaylorJet(out, out.order, c) for c in inner]
    for row, want_coef in zip(got, coef):
        want = out.constant(0.0)
        for i, alpha in enumerate(space.indices):
            if sum(alpha) > out.order:
                continue
            term = out.constant(want_coef[i])
            for v, k in enumerate(alpha):
                for _ in range(k):
                    term = term * jets[v]
            want = want + term
        assert np.allclose(row, want.c, rtol=1e-12, atol=1e-12)
    # stacked products are the row-by-row jet products, bit for bit
    stacked = out.product(inner[:, None], inner[None], out.order)
    for a in range(len(inner)):
        for b in range(len(inner)):
            assert stacked[a, b].tobytes() == (jets[a] * jets[b]).c.tobytes()
