"""Taylor-jet engine: exactness on polynomials, FD cross-checks, error paths."""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import NonFiniteField, OrderUnsupported, bundle_point
from finslerkit.jets import (
    JetSpace,
    TaylorJet,
    compose,
    eval_taylor,
    log,
    power,
    sin,
    sqrt,
    unit_index,
)

from fd_oracles import central_gradient, richardson_hessian


def quadratic_fiber(xs, ys):
    # L = (y1)^2 in 2 manifold dimensions
    return ys[0] * ys[0]


def partial(jet, x=(), y=()):
    """Mixed partial of a bundle field's jet for manifold indices ``x`` and
    fiber indices ``y``, with multiplicity: ``partial(jet, x=(0,), y=(1, 1))``
    is d/dx0 d/dy1 d/dy1 of the field."""
    n = jet.space.nvars // 2
    return jet.partial(unit_index(2 * n, *x, *(n + i for i in y)))


def test_polynomial_fiber_square_is_exact():
    p = bundle_point([0.3, -1.2], [0.7, 2.0])
    jet = eval_taylor(quadratic_fiber, p, 2)
    assert jet.value == 0.7 * 0.7
    assert partial(jet, y=(0, 0)) == 2.0
    assert partial(jet, y=(0,)) == 2.0 * 0.7
    assert partial(jet, x=(0,)) == 0.0
    assert partial(jet, x=(1,), y=(0,)) == 0.0


def test_mixed_cubic_polynomial_exact():
    # f = x1 * y2^2: the only surviving third partial is d_x1 d_y2 d_y2 f = 2
    def f(xs, ys):
        return xs[0] * ys[1] * ys[1]

    p = bundle_point([2.0, 0.5], [1.5, -0.25])
    jet = eval_taylor(f, p, 3)
    assert partial(jet, x=(0,), y=(1, 1)) == 2.0
    assert partial(jet, y=(1, 1)) == 2.0 * 2.0
    assert partial(jet, x=(0,), y=(1,)) == 2.0 * (-0.25)
    assert partial(jet, x=(0, 0)) == 0.0


def test_transcendental_field_against_closed_form():
    # f = sin(x1) * y1: d_x1 d_x1 d_y1 f = -sin(x1)
    def f(xs, ys):
        return sin(xs[0]) * ys[0]

    p = bundle_point([0.7, 0.0], [1.0, 0.0])
    jet = eval_taylor(f, p, 3)
    assert partial(jet, x=(0, 0), y=(0,)) == pytest.approx(-math.sin(0.7), rel=1e-14)
    assert jet.value == pytest.approx(math.sin(0.7), rel=1e-14)


def test_gradient_matches_finite_differences():
    def f(xs, ys):
        return sin(xs[0] * ys[1]) + sqrt(3.0 + xs[1] * xs[1]) * ys[0]

    p = bundle_point([0.4, -0.9], [1.1, 0.6])
    jet = eval_taylor(f, p, 1)

    def flat(z):
        x, y = z[:2], z[2:]
        return math.sin(x[0] * y[1]) + math.sqrt(3.0 + x[1] ** 2) * y[0]

    z0 = p.as_state()
    fd = central_gradient(flat, z0, 1e-6)
    exact = np.array(
        [partial(jet, x=(0,)), partial(jet, x=(1,)), partial(jet, y=(0,)), partial(jet, y=(1,))]
    )
    assert np.allclose(exact, fd, atol=5e-10)


def test_hessian_matches_richardson_finite_differences():
    def f(xs, ys):
        from finslerkit.jets import exp

        return exp(0.2 * xs[0]) * ys[0] * ys[0] + xs[1] * ys[1] * ys[0]

    p = bundle_point([0.25, 1.4], [0.8, -0.3])
    jet = eval_taylor(f, p, 2)

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
            exact = partial(jet, x=tuple(spec["x"]), y=tuple(spec["y"]))
            assert exact == pytest.approx(fd[i, j], abs=2e-6), (kindi, idxi, kindj, idxj)


def test_fourth_order_partial_of_quartic():
    def f(xs, ys):
        return ys[0] ** 4

    p = bundle_point([0.0, 0.0], [1.3, 0.2])
    jet = eval_taylor(f, p, 4)
    assert partial(jet, y=(0, 0, 0, 0)) == pytest.approx(24.0, rel=1e-13)


def test_non_finite_field_detected():
    def f(xs, ys):
        return (xs[0] - 1.0).reciprocal()

    with pytest.raises(NonFiniteField):
        eval_taylor(f, bundle_point([1.0, 0.0], [1.0, 0.0]), 1)

    def g(xs, ys):
        from finslerkit.jets import log

        return log(xs[0])

    with pytest.raises(NonFiniteField):
        eval_taylor(g, bundle_point([-2.0, 0.0], [1.0, 0.0]), 1)


def test_empty_multi_index_is_plain_value():
    def f(xs, ys):
        return 3.5 + 0.0 * xs[0]

    p = bundle_point([1.0, 2.0], [3.0, 4.0])
    jet = eval_taylor(f, p, 2)
    assert jet.partial((0, 0, 0, 0)) == 3.5
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


def test_float_power_of_negative_base_is_typed():
    # a float base takes the jets' rule: no complex result, a typed error
    with pytest.raises(NonFiniteField):
        power(-2.0, 0.5)
    assert power(-2.0, 3.0) == -8.0
    assert power(-2.0, -2) == 0.25


def test_float_root_and_log_outside_their_domain_are_typed():
    # the float branches raise the jet branches' error and name the value
    with pytest.raises(NonFiniteField, match=r"sqrt of negative value -5\.000e-01"):
        sqrt(-0.5)
    with pytest.raises(NonFiniteField, match=r"log of non-positive value -5\.000e-01"):
        log(-0.5)
    with pytest.raises(NonFiniteField, match=r"log of non-positive value 0\.000e\+00"):
        log(0.0)
    assert sqrt(0.0) == 0.0 and sqrt(2.25) == 1.5 and log(1.0) == 0.0


def test_partials_are_the_mixed_partials_one_variable_per_axis():
    def field(xs, ys):
        return xs[0] * ys[1] * ys[1] * xs[1].exp() + sin(ys[0]) * ys[1] * xs[0]

    jet = eval_taylor(field, bundle_point([0.3, -0.2], [0.7, 1.1]), 3)
    for axes in ([range(4)], [[2, 3], [0, 1, 3]], [[0, 3], [1], [3, 2]]):
        tensor = jet.partials(*axes)
        assert tensor.shape == tuple(len(axis) for axis in axes)
        for pos in np.ndindex(tensor.shape):
            slots = [axis[i] for axis, i in zip(axes, pos)]
            assert tensor[pos] == jet.partial(unit_index(4, *slots))


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


# -- supports ----------------------------------------------------------------
#
# A jet's support bounds the variables its non-zero coefficients involve, and
# products skip the pairs outside both factors' supports.  The trees below mix
# every operation on leaves over a random subset of the variables; evaluated a
# second time from array-built leaves (full support, so every product runs the
# whole degree prefix), they must give the same bits.

_LEAVES = st.one_of(
    st.tuples(st.just("var"), st.integers(0, 7), st.floats(-2.0, 2.0)),
    st.tuples(st.just("const"), st.floats(-2.0, 2.0)),
)


def _branches(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.tuples(st.sampled_from(["neg", "exp", "sin", "sqrt", "recip", "cube"]), children),
        st.tuples(st.just("scale"), children, st.floats(-3.0, 3.0)),
        st.tuples(st.just("deriv"), children, st.integers(0, 7)),
    )


_TREES = st.recursive(_LEAVES, _branches, max_leaves=10)


def _evaluate_tree(tree, space, full, seen):
    """The jet of ``tree`` in ``space``; ``full`` builds the leaves from raw
    arrays, so that every jet of that run has the full support."""
    head = tree[0]
    if head in ("var", "const"):
        if head == "var":
            jet = space.variable(tree[1] % space.nvars, tree[2])
        else:
            jet = space.constant(tree[1])
        if full:
            jet = TaylorJet(space, jet.order, jet.c.copy())
        seen.append(jet)
        return jet
    a = _evaluate_tree(tree[1], space, full, seen)
    if head in ("+", "-", "*", "/"):
        b = _evaluate_tree(tree[2], space, full, seen)
        if head == "+":
            out = a + b
        elif head == "-":
            out = a - b
        elif head == "*":
            out = a * b
        else:
            out = a / (1.0 + b * b)
    elif head == "neg":
        out = -a
    elif head == "exp":
        out = (0.25 * a).exp()
    elif head == "sin":
        out = a.sin()
    elif head == "sqrt":
        out = (1.0 + a * a).sqrt()
    elif head == "recip":
        out = (1.0 + a * a).reciprocal()
    elif head == "cube":
        out = a**3
    elif head == "scale":
        out = a * tree[2]
    else:  # deriv
        out = a.deriv(tree[2] % space.nvars) if a.order >= 1 else a
    seen.append(out)
    return out


@st.composite
def _support_case(draw):
    nvars = draw(st.integers(2, 8))
    order = draw(st.integers(0, 5))
    capped = draw(st.integers(0, nvars))
    space = JetSpace.get(nvars, order, capped, draw(st.integers(0, order)))
    return space, draw(_TREES)


def _bits(jet):
    return jet.c.view(np.int64)


@settings(max_examples=200, deadline=None)
@given(case=_support_case())
def test_support_aware_products_are_bit_identical_to_full_support(case):
    space, tree = case
    with np.errstate(over="ignore", invalid="ignore"):
        sparse = _evaluate_tree(tree, space, False, [])
        full = _evaluate_tree(tree, space, True, [])
    assert full.support == space.full_support
    if not np.isfinite(full.c).all():
        return  # the bit-identity claim is for finite results
    assert sparse.order == full.order
    assert np.array_equal(_bits(sparse), _bits(full))


@settings(max_examples=150, deadline=None)
@given(case=_support_case())
def test_every_slot_outside_the_support_is_zero(case):
    space, tree = case
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        _evaluate_tree(tree, space, False, seen)
    for jet in seen:
        assert 0 <= jet.support <= space.full_support
        for alpha, coefficient in zip(space.indices, jet.c):
            if any(k and not jet.support >> v & 1 for v, k in enumerate(alpha)):
                assert coefficient == 0.0  # +0.0, or -0.0 after a negation


@settings(max_examples=150, deadline=None)
@given(case=_support_case())
def test_stacked_products_with_partial_supports_are_the_row_by_row_products(case):
    space, tree = case
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        _evaluate_tree(tree, space, False, seen)
    order = max(jet.order for jet in seen)
    rows = [jet for jet in seen if jet.order == order and np.isfinite(jet.c).all()]
    if not rows:
        return
    # each stack's support bounds every row's: the union of the rows' supports
    left, right = rows[::2], rows[1::2] or rows
    support_a = functools.reduce(operator.or_, (jet.support for jet in left))
    support_b = functools.reduce(operator.or_, (jet.support for jet in right))
    a = np.stack([jet.c for jet in left])[:, None]
    b = np.stack([jet.c for jet in right])[None]
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = space.product(a, b, order, support_a, support_b)
        for i, jet_a in enumerate(left):
            for j, jet_b in enumerate(right):
                assert np.array_equal(stacked[i, j].view(np.int64), _bits(jet_a * jet_b))


def test_supports_of_constructors():
    space = JetSpace.get(4, 3)
    assert space.full_support == 0b1111
    assert space.constant(2.0).support == 0
    assert space.variable(2, 0.5).support == 0b0100
    assert TaylorJet(space, 2, np.zeros(space.size)).support == space.full_support
    # sums and products take the union; the rest keep the operand's support
    u, w = space.variable(0, 0.3), space.variable(3, -0.4)
    assert (u + w).support == (u * w).support == (u - w).support == 0b1001
    for kept in (-u, 2.0 * u, u / 3.0, u.deriv(0), u.copy(), u.exp(), u.reciprocal(), u**2, u**0):
        assert kept.support == 0b0001
    # full against full runs the degree prefix itself
    for order in range(space.order + 1):
        full = space.full_support
        assert space.pairs(order, full, full) is space._mul_prefix[order]


def test_array_built_image_jets_have_full_support():
    from finslerkit.charts import AutoparallelChart
    from finslerkit.connection import GeneralConnection
    from finslerkit.models import load_model

    conn = GeneralConnection.cartan(load_model("builtin:sphere2d"))
    chart = AutoparallelChart(conn, np.array([np.pi / 3, 0.4]), kind="extended")
    space = JetSpace.get(2, 2)
    xs, ys = chart._image_jets(np.zeros(2), np.array([0.8, -0.5]), space, 0)
    assert all(jet.support == space.full_support for jet in xs + ys)


def test_non_finite_coefficient_still_raises_with_sparse_factors():
    # x1's factor overflows; y2's factor has support {y2}, so the product never
    # pairs the overflowed slots with y2's zero slots.  The infinity still
    # reaches the result and is caught.
    def f(xs, ys):
        return (xs[0] * 1e308 * 10.0) * ys[1]

    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteField):
        eval_taylor(f, bundle_point([0.5, 0.0], [1.0, 2.0]), 2)


def test_quartic_lagrangian_jet_touches_under_one_percent_of_the_pairs(monkeypatch):
    from finslerkit.connection import _lagrangian_jet
    from finslerkit.models import load_model

    model = load_model("builtin:quartic4d")
    p = bundle_point([0.1, -0.2, 0.3, 0.05], [0.7, -0.4, 0.5, 0.9])
    run = prefix = 0
    pairs = JetSpace.pairs

    def counted(space, order, support_a, support_b):
        nonlocal run, prefix
        table = pairs(space, order, support_a, support_b)
        run += table[0].size
        prefix += space._mul_prefix[order][0].size
        return table

    monkeypatch.setattr(JetSpace, "pairs", counted)
    _lagrangian_jet(model, p, 2)
    assert prefix > 0
    assert run <= 0.01 * prefix
