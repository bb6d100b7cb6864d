"""Taylor-jet engine: exactness on polynomials, FD cross-checks, error paths."""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import NonFiniteField, OrderUnsupported, bundle_point, expressions
from finslerkit.jets import (
    SERIES,
    JetSpace,
    TaylorJet,
    compose,
    eval_taylor,
    exp,
    log,
    power,
    sin,
    sqrt,
)

from finslerkit.lagrangian import FinslerLagrangian

from fd_oracles import central_gradient, richardson_hessian
from jet_oracles import deriv, jet_partial, loop_tables, multi_indices, restrict, slot, unit_index


def quadratic_fiber(xs, ys):
    # L = (y1)^2 in 2 manifold dimensions
    return ys[0] * ys[0]


def partial(jet, x=(), y=()):
    """Mixed partial of a bundle field's jet for manifold indices ``x`` and
    fiber indices ``y``, with multiplicity: ``partial(jet, x=(0,), y=(1, 1))``
    is d/dx0 d/dy1 d/dy1 of the field."""
    n = jet.space.nvars // 2
    return jet_partial(jet, unit_index(2 * n, *x, *(n + i for i in y)))


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
    assert jet_partial(jet, (0, 0, 0, 0)) == 3.5
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
    order0 = JetSpace.get(2, 0)
    assert np.array_equal(order0.constant(0.3).exp().c, order0.constant(math.exp(0.3)).c)


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


@pytest.mark.parametrize("call, message", [
    (lambda: exp(800.0), "exp of 8.000e+02 overflows"),
    (lambda: exp(JetSpace.get(2, 2).variable(0, 800.0)), "exp of 8.000e+02 overflows"),
    (lambda: power(1e200, 2.5), "power 2.5 of 1.000e+200 overflows"),
    (lambda: JetSpace.get(2, 2).variable(0, 1e200) ** 2.5, "power 2.5 of 1.000e+200 overflows"),
    (lambda: JetSpace.get(2, 2).variable(0, 1e-200) ** -2.5, "power -2.5 of 1.000e-200 overflows"),
])
def test_overflowing_exponentials_and_powers_are_typed(call, message):
    # float and jet branches alike: a typed error naming the value, not
    # Python's OverflowError or numpy's inf
    with pytest.raises(NonFiniteField) as info:
        call()
    assert str(info.value) == message


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
            assert tensor[pos] == jet_partial(jet, unit_index(4, *slots))


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
    d = deriv(f, 0)
    assert d.space is JetSpace.get(2, 2)
    assert d.value == pytest.approx(2 * 0.4 * 1.2, rel=1e-15)
    assert jet_partial(d, (0, 1)) == pytest.approx(2 * 0.4, rel=1e-15)
    with pytest.raises(OrderUnsupported):
        deriv(deriv(deriv(deriv(f, 0), 1), 0), 1)


def _padded(space, jet):
    """``jet``'s coefficients on the slots of ``space``, of which its own
    space is a prefix, zero above."""
    return np.append(jet.c, np.zeros(space.size - jet.space.size))


def _full_table_product(space, a, b):
    """Reference product: every pair of the order-``space.order`` table, in
    i-major order, folded with bincount, then masked to the lower order of
    the factors' spaces."""
    ia, ib, ic = [], [], []
    indices = multi_indices(space)
    slot_of = {alpha: i for i, alpha in enumerate(indices)}
    for i, alpha in enumerate(indices):
        for j, beta in enumerate(indices):
            gamma = tuple(p + q for p, q in zip(alpha, beta))
            if sum(gamma) <= space.order:
                ia.append(i)
                ib.append(j)
                ic.append(slot_of[gamma])
    a_c, b_c = _padded(space, a), _padded(space, b)
    full = np.bincount(ic, weights=a_c[ia] * b_c[ib], minlength=space.size)
    order = min(a.space.order, b.space.order)
    return np.where(space.degrees <= order, full, 0.0)


def _dict_convolution(space, a, b):
    order = min(a.space.order, b.space.order)
    a_c, b_c = _padded(space, a), _padded(space, b)
    acc = {}
    indices = multi_indices(space)
    for i, alpha in enumerate(indices):
        for j, beta in enumerate(indices):
            gamma = tuple(p + q for p, q in zip(alpha, beta))
            if sum(gamma) <= order:
                acc[gamma] = acc.get(gamma, 0.0) + a_c[i] * b_c[j]
    return np.array([acc.get(alpha, 0.0) for alpha in indices])


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
        jets.append(restrict(TaylorJet(space, c), o))
    return space, jets[0], jets[1]


@settings(max_examples=150, deadline=None)
@given(pair=_jet_pair())
def test_product_touches_only_the_needed_degrees(pair):
    space, a, b = pair
    order = min(a.space.order, b.space.order)
    prod = restrict(a, order) * restrict(b, order)
    assert prod.space is JetSpace.get(space.nvars, order)
    assert _padded(space, prod).tobytes() == _full_table_product(space, a, b).tobytes()
    ref = _dict_convolution(space, a, b)
    assert np.allclose(_padded(space, prod), ref, rtol=1e-14, atol=1e-14)


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
        jets.append(restrict(TaylorJet(full, c), o))
    return (capped, cap), jets[0], jets[1]


@settings(max_examples=150, deadline=None)
@given(case=_capped_case())
def test_capped_space_is_exact_on_its_slots(case):
    (capped, cap), a, b = case
    order = min(a.space.order, b.space.order)
    a, b = restrict(a, order), restrict(b, order)
    full, space = a.space, JetSpace.get(a.space.nvars, order, capped, cap)
    x_degree = lambda alpha: sum(alpha[: space.capped])
    assert multi_indices(space) == [
        alpha for alpha in multi_indices(full) if x_degree(alpha) <= space.cap
    ]
    slot_of = {alpha: i for i, alpha in enumerate(multi_indices(full))}
    kept = np.array([slot_of[alpha] for alpha in multi_indices(space)], dtype=np.intp)

    def capped_jet(jet):
        return TaylorJet(space, jet.c[kept])

    prod = capped_jet(a) * capped_jet(b)
    assert prod.space is space
    assert prod.c.tobytes() == (a * b).c[kept].tobytes()
    if order == 0:
        return
    low = JetSpace.get(space.nvars, order - 1, capped, cap)
    for v in range(space.nvars):
        d = deriv(capped_jet(a), v)
        ref = deriv(a, v).c[kept[: low.size]]
        if v >= space.capped:  # uncapped: exact on every slot
            assert d.c.tobytes() == ref.tobytes()
        else:  # capped: exact below the cap, zero on it
            below = np.array([x_degree(alpha) < space.cap for alpha in multi_indices(low)])
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


def _same_array(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("nvars", range(1, 9))
def test_tables_match_the_loop_builder(nvars):
    # every table of the array build against the loop over tuples, on the
    # full spaces and with capped = nvars // 2 at caps 0-3, orders 0-6
    for order in range(7):
        for capped, cap in [(0, None)] + [(nvars // 2, c) for c in range(4)]:
            _assert_tables_match(nvars, order, capped, cap)


@pytest.mark.parametrize("nvars,order,capped,cap", [
    (2, 7, 1, 4), (4, 7, 2, 4),  # verify's chart series on 1-d and 2-d models
    (3, 3, 3, 0), (5, 4, 5, 2),  # every variable capped: empty degree blocks at cap 0
    (63, 1, 0, None), (40, 2, 20, 1),  # codes past int64: Python integers
])
def test_tables_match_the_loop_builder_beyond_the_grid(nvars, order, capped, cap):
    wide = (order + 1) ** (nvars + 1) > np.iinfo(np.int64).max
    assert (JetSpace(nvars, order, capped, cap).codes.dtype == object) == wide
    _assert_tables_match(nvars, order, capped, cap)


def _assert_tables_match(*args):
    space, ref = JetSpace(*args), loop_tables(*args)
    assert space.size == ref.size, args
    for name in ("degrees", "exponents", "factorials", "_mul_ia", "_mul_ib", "_mul_ic",
                 "_mono_var", "_mono_parent"):
        _same_array(getattr(space, name), getattr(ref, name), args + (name,))
    nvars, order, capped, cap = args
    # the pairs of output degree <= k are the whole table of the order-k space
    lower = [JetSpace.get(nvars, k, capped, cap)._mul_ia.size for k in range(order + 1)]
    assert lower == ref.ends, args
    for got, want in zip(space._deriv, ref._deriv, strict=True):
        for g, w in zip(got, want, strict=True):
            _same_array(g, w, args + ("_deriv",))
    assert (space.slots(space.exponents) == np.arange(space.size)).all(), args


@pytest.mark.parametrize("nvars", range(1, 7))
def test_lower_order_spaces_are_prefixes(nvars):
    # for every cap and k <= m, the order-k space is the order-m space's first
    # slots: its pairs are the first pairs in their order, so its products
    # are the first slots of the order-m products bit for bit, and a
    # derivative restricted to order k - 1 reads the same in both
    rng = np.random.default_rng(nvars)
    for order in range(6):
        for capped in range(nvars + 1):
            for cap in range(order + 1):
                space = JetSpace.get(nvars, order, capped, cap)
                a, b = rng.standard_normal((2, space.size))
                product = space.product(a, b)
                for k in range(order + 1):
                    low = JetSpace.get(nvars, k, capped, cap)
                    size, pairs = low.size, low._mul_ia.size
                    what = (nvars, order, capped, cap, k)
                    assert size == np.count_nonzero(space.degrees <= k), what
                    assert (low.exponents == space.exponents[:size]).all(), what
                    for name in ("_mul_ia", "_mul_ib", "_mul_ic"):
                        assert (getattr(low, name) == getattr(space, name)[:pairs]).all(), what
                    assert (space.degrees[space._mul_ic[pairs:]] > k).all(), what
                    _same_array(low.product(a[:size], b[:size]), product[:size], what)
                    if k == 0:
                        continue
                    lower = JetSpace.get(nvars, k - 1, capped, cap).size
                    for v in range(nvars):
                        want = space.derivative(a, v)[:lower]
                        _same_array(low.derivative(a[:size], v)[:lower], want, what + (v,))


def test_slots_returns_minus_one_outside_the_space():
    space = JetSpace.get(4, 3, 2, 1)
    assert space.slots([0, 0, 0, 0]) == 0
    assert space.slots([1, 0, 0, 2]) == slot(space, (1, 0, 0, 2)) > 0
    assert space.slots([0, 0, 2, 2]) == -1  # degree above the order
    assert space.slots([1, 1, 0, 0]) == -1  # x-degree above the cap
    assert space.slots([0, 1, -1, 0]) == -1  # a negative exponent
    # alpha + e_v with alpha_v = order carries into the next digit: its code
    # would be another slot's, so the lookup refuses it by its degree
    full = JetSpace.get(2, 3)
    assert (full.slots([[0, 4], [4, 0], [3, 1]]) == -1).all()
    assert full.slots([[1, 2], [0, 3]]).tolist() == [slot(full, (1, 2)), slot(full, (0, 3))]
    for v in range(full.nvars):  # the derivative table never reads past the order
        src, dst, _ = full._deriv[v]
        assert (full.degrees[dst] < full.order).all() and (full.degrees[src] == full.degrees[dst] + 1).all()


def test_partial_slots_are_cached_tensors_of_the_unit_sums():
    space = JetSpace.get(4, 3)
    idx, fac = space.partial_slots(range(2), [1, 3])
    assert idx.shape == fac.shape == (2, 2)
    for a in range(2):
        for b, w in enumerate([1, 3]):
            assert idx[a, b] == slot(space, unit_index(4, a, w))
            assert fac[a, b] == space.factorials[idx[a, b]]
    assert space.partial_slots(range(2), (1, 3))[0] is idx
    with pytest.raises(OrderUnsupported):
        JetSpace.get(4, 1).partial_slots(range(4), range(4))


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
    jets = [TaylorJet(out, c) for c in inner]
    for row, want_coef in zip(got, coef):
        want = out.constant(0.0)
        for i, alpha in enumerate(multi_indices(space)):
            if sum(alpha) > out.order:
                continue
            term = out.constant(want_coef[i])
            for v, k in enumerate(alpha):
                for _ in range(k):
                    term = term * jets[v]
            want = want + term
        assert np.allclose(row, want.c, rtol=1e-12, atol=1e-12)
    # stacked products are the row-by-row jet products, bit for bit
    stacked = out.product(inner[:, None], inner[None])
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
            jet = TaylorJet(space, jet.c.copy())
        seen.append(jet)
        return jet
    a = _evaluate_tree(tree[1], space, full, seen)
    if head in ("+", "-", "*", "/"):
        b = _evaluate_tree(tree[2], space, full, seen)
        order = min(a.space.order, b.space.order)  # a derivative lies one order lower
        a, b = restrict(a, order), restrict(b, order)
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
        out = deriv(a, tree[2] % space.nvars) if a.space.order >= 1 else a
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
    assert sparse.space is full.space
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
        for alpha, coefficient in zip(multi_indices(jet.space), jet.c):
            if any(k and not jet.support >> v & 1 for v, k in enumerate(alpha)):
                assert coefficient == 0.0  # +0.0, or -0.0 after a negation


@settings(max_examples=150, deadline=None)
@given(case=_support_case())
def test_stacked_products_with_partial_supports_are_the_row_by_row_products(case):
    space, tree = case
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        _evaluate_tree(tree, space, False, seen)
    top = max((jet.space for jet in seen), key=lambda s: s.order)
    rows = [jet for jet in seen if jet.space is top and np.isfinite(jet.c).all()]
    if not rows:
        return
    # each stack's support bounds every row's: the union of the rows' supports
    left, right = rows[::2], rows[1::2] or rows
    support_a = functools.reduce(operator.or_, (jet.support for jet in left))
    support_b = functools.reduce(operator.or_, (jet.support for jet in right))
    a = np.stack([jet.c for jet in left])[:, None]
    b = np.stack([jet.c for jet in right])[None]
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = top.product(a, b, support_a, support_b)
        for i, jet_a in enumerate(left):
            for j, jet_b in enumerate(right):
                assert np.array_equal(stacked[i, j].view(np.int64), _bits(jet_a * jet_b))


def test_supports_of_constructors():
    space = JetSpace.get(4, 3)
    assert space.full_support == 0b1111
    assert space.constant(2.0).support == 0
    assert space.variable(2, 0.5).support == 0b0100
    assert TaylorJet(space, np.zeros(space.size)).support == space.full_support
    # sums and products take the union; the rest keep the operand's support
    u, w = space.variable(0, 0.3), space.variable(3, -0.4)
    assert (u + w).support == (u * w).support == (u - w).support == 0b1001
    for kept in (-u, 2.0 * u, u / 3.0, deriv(u, 0), u.copy(), u.exp(), u.reciprocal(), u**2, u**0):
        assert kept.support == 0b0001
    # full against full runs the whole table
    full = space.full_support
    assert space.pairs(full, full)[0] is space._mul_ia


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
    """TaylorJet arithmetic on quartic4d's L runs under 1% of the full-support
    pairs, and the compiled tape, whose products are hash-consed, runs no more
    pairs than that walk."""
    from finslerkit.connection import _lagrangian_jet, _x_cap
    from finslerkit.models import load_model

    from jet_oracles import walk_taylor

    model = load_model("builtin:quartic4d")
    p = bundle_point([0.1, -0.2, 0.3, 0.05], [0.7, -0.4, 0.5, 0.9])
    counts = {"run": 0, "table": 0}
    pairs = JetSpace.pairs

    def counted(space, support_a, support_b):
        table = pairs(space, support_a, support_b)
        counts["run"] += table[0].size
        counts["table"] += space._mul_ia.size
        return table

    monkeypatch.setattr(JetSpace, "pairs", counted)
    walk_taylor(model, p, 5, _x_cap(2))
    run, table = counts["run"], counts["table"]
    assert table > 0
    assert run <= 0.01 * table
    counts["run"] = 0
    monkeypatch.setattr(expressions, "_TAPES", {})  # the tape reads its pairs as it compiles
    _lagrangian_jet(model, p, 2)
    assert 0 < counts["run"] <= run


def test_log_of_a_huge_value_has_finite_coefficients_and_no_warning():
    # under the suite's error::RuntimeWarning filter a numpy overflow would raise
    jet = log(JetSpace.get(1, 4).variable(0, 1e100))
    assert np.isfinite(jet.c).all()
    assert jet.c[0] == math.log(1e100)
    assert jet.c[1] == 1e-100 and jet.c[2] == -0.5e-200


def test_log_series_is_bitwise_the_numpy_float_formula_on_ordinary_values():
    for u0 in np.geomspace(1e-3, 1e3, 2001):
        series = SERIES["log"](u0, 8, None)
        for k in range(1, 9):
            assert series[k] == ((-1.0) ** (k + 1)) / (k * u0**k)


def test_log_series_of_a_tiny_value_names_the_overflow():
    with pytest.raises(NonFiniteField, match="Taylor coefficient 4 overflows"):
        SERIES["log"](1e-100, 4, None)


def test_non_finite_field_jets_name_their_point():
    p = bundle_point([0.5, -0.25], [1.0, 2.0])

    def infinite(xs, ys):
        return TaylorJet(xs[0].space, np.full(xs[0].space.size, np.inf))

    at = r"at x = \[0.5, -0.25\], y = \[1.0, 2.0\]"
    with pytest.raises(NonFiniteField, match="non-finite derivatives " + at):
        eval_taylor(infinite, p, 2)
    # the compiled tape's check: an infinite literal
    model = FinslerLagrangian.from_dict(
        {"dimension": 2, "homogeneity_degree": 2, "family": "custom",
         "parameters": {"expression": "1e999 * y1^2 + y2^2"}}
    )
    with np.errstate(all="ignore"), pytest.raises(NonFiniteField, match="non-finite derivatives " + at):
        model.taylor(p, 2)
