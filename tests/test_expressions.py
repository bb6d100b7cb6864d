"""Coefficient-expression grammar: parsing, printing, generic evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import ExpressionError, FinslerKitError, NonFiniteField, bundle_point, expressions
from finslerkit.expressions import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    coordinate_env,
    evaluate,
    parse,
    to_string,
    variables_of,
)
from finslerkit.jets import JetSpace, TaylorJet, eval_taylor, finite_jet

from jet_oracles import jet_partial, restrict


def ev(text, **env):
    return evaluate(parse(text), env)


def test_precedence_and_associativity():
    assert ev("2 + 3 * 4") == 14
    assert ev("2 * 3 ^ 2") == 18
    assert ev("-3 ^ 2") == -9  # unary minus binds looser than ^
    assert ev("2 ^ 3 ^ 2") == 512  # right-associative
    assert ev("8 / 4 / 2") == 1  # left-associative
    assert ev("1 - 2 - 3") == -4
    assert ev("2 ^ -2") == 0.25


def test_functions_and_variables():
    assert ev("sin(x1) + cos(x1)", x1=0.0) == 1.0
    assert ev("sqrt(x1 ^ 2 + y1 ^ 2)", x1=3.0, y1=4.0) == 5.0
    assert ev("abs(-2.5)") == 2.5
    assert ev("exp(log(x1))", x1=1.7) == pytest.approx(1.7, rel=1e-15)


def test_parse_errors():
    for bad in ["", "1 +", "foo(2)", "(1", "1 2", "x1 @ y1", "* 3"]:
        with pytest.raises(ExpressionError):
            parse(bad)
    with pytest.raises(ExpressionError):
        ev("x1 + z9", x1=1.0)


def test_poles_raise_non_finite_field():
    p = bundle_point([0.0, 1.0], [1.0, 0.5])
    for text in ["1 / sin(x1)", "x1 ^ -2", "y1 / x1"]:
        with pytest.raises(NonFiniteField):
            ev(text, x1=0.0, y1=1.0)
        with pytest.raises(NonFiniteField):  # the same pole over jets
            eval_taylor(lambda xs, ys: evaluate(parse(text), coordinate_env(2, xs, ys)), p, 2)


def test_round_trip_fixed_cases():
    cases = [
        "x1 ^ 2 * sin(x2) - 1 / (y1 + 2)",
        "-(x1 + y1) * 3",
        "2 ^ 3 ^ x1",
        "(x1 - y1) / (x1 + y1)",
        "sqrt(abs(y2)) + exp(-x1)",
    ]
    for text in cases:
        tree = parse(text)
        assert parse(to_string(tree)) == tree


def test_evaluation_over_jets_matches_floats():
    text = "exp(0.3 * x1) * y1 ^ 2 + sin(x2) * y2"
    p = bundle_point([0.2, 1.1], [0.7, -0.4])
    tree = parse(text)

    def field(xs, ys):
        return evaluate(tree, coordinate_env(2, xs, ys))

    jet = eval_taylor(field, p, 2)
    want = math.exp(0.3 * 0.2) * 0.7**2 + math.sin(1.1) * (-0.4)
    assert jet.value == pytest.approx(want, rel=1e-14)
    # d/dy1 = 2 y1 exp(0.3 x1)
    e1 = [0, 0, 1, 0]
    assert jet_partial(jet, tuple(e1)) == pytest.approx(
        2 * 0.7 * math.exp(0.06), rel=1e-13
    )


_leaf = st.one_of(
    st.floats(0.1, 4.0).map(lambda v: Num(round(v, 3))),
    st.sampled_from(["x1", "x2", "y1", "y2"]).map(Var),
)


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: BinOp(*t)),
        sub.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), sub).map(
            lambda t: Call(t[0], t[1])
        ),
    )


@settings(max_examples=120, deadline=None)
@given(tree=_trees(3))
def test_round_trip_property(tree):
    assert parse(to_string(tree)) == tree


@settings(max_examples=60, deadline=None)
@given(tree=_trees(2))
def test_printed_form_evaluates_identically(tree):
    env = {"x1": 0.37, "x2": -0.82, "y1": 1.21, "y2": 0.55}
    try:
        want = evaluate(tree, env)
    except (NonFiniteField, OverflowError, ValueError):
        return
    got = evaluate(parse(to_string(tree)), env)
    if math.isfinite(want):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_variables_of():
    assert variables_of(parse("x1 * sin(y2) - 3")) == {"x1", "y2"}


# -- the compiled tape against the walk over TaylorJets ------------------------

def _jet_trees(depth):
    """``_trees`` plus log, sqrt, abs, integer powers and division by jets."""
    if depth == 0:
        return _leaf
    sub = _jet_trees(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: BinOp(*t)),
        sub.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]), sub).map(
            lambda t: Call(t[0], t[1])
        ),
        st.tuples(sub, st.integers(-2, 4)).map(lambda t: BinOp("^", t[0], Num(float(t[1])))),
    )


# coordinates in [-2, 2] with exact zeros and repeats, so that poles, zero
# reciprocals, roots of negatives and the abs kink all occur
_coordinate = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1.0, -1.0, 0.5]))


def _outcome(compute):
    """The jet's bytes, space and support, a float, or the error's type and
    message; numpy's own warnings are off, so every failure is the library's.
    A NaN's sign bit is not compared: every user of a jet rejects NaN."""
    try:
        with np.errstate(all="ignore"):
            out = compute()
    except (FinslerKitError, ValueError, OverflowError, ZeroDivisionError) as err:
        return type(err), str(err)
    if isinstance(out, TaylorJet):
        return np.where(np.isnan(out.c), np.nan, out.c).tobytes(), out.space, out.support
    return out


def _seeded_outcomes(tree, p, order):
    """The tape's and the walk's outcomes on the variables seeded at ``p``,
    as in FinslerLagrangian.taylor."""
    space = JetSpace.get(4, order, 2, 1)

    def walk(xs, ys):
        return evaluate(tree, coordinate_env(2, xs, ys))

    tape = expressions.compiled(tree, repr(tree), space, None)
    return (
        _outcome(lambda: finite_jet(tape.run(p.x, p.y), space, p)),
        _outcome(lambda: eval_taylor(walk, p, order, 1)),
    )


@settings(max_examples=150, deadline=None)
@given(tree=_jet_trees(3), coords=st.lists(_coordinate, min_size=4, max_size=4),
       order=st.integers(0, 3))
def test_tape_is_the_walk_over_taylor_jets_bit_for_bit(tree, coords, order):
    seeded_tape, seeded_walk = _seeded_outcomes(tree, bundle_point(coords[:2], coords[2:]), order)
    assert seeded_tape == seeded_walk

    def walk(xs, ys):
        return evaluate(tree, coordinate_env(2, xs, ys))

    space = JetSpace.get(4, order, 2, 1)
    # chart-style inputs: full support, the fiber one order below the base,
    # and the base restricted to the fiber's space
    rng = np.random.default_rng([len(repr(tree)), order])
    jets = [restrict(TaylorJet(space, np.append(v, rng.standard_normal(space.size - 1))),
                     max(order - 1, 0)) for v in coords]
    inputs = tuple(jet.support for jet in jets)
    tape = expressions.compiled(tree, repr(tree), jets[0].space, inputs)
    assert _outcome(lambda: tape.run(*[jet.c for jet in jets])) == _outcome(
        lambda: walk(jets[:2], jets[2:])
    )


@pytest.mark.parametrize("text, y1, expected", [
    # errors the compiler defers to where the walk raises them
    ("y1 * z9", 1.0, (ExpressionError, "unknown variable 'z9'")),
    ("y1 + log(0 - 1)", 1.0, (NonFiniteField, "log of non-positive value -1.000e+00")),
    ("y1 ^ x1", 1.0, (ExpressionError, "exponent must be a constant")),
    ("y1 / (0.5 - 0.5)", 1.0, (NonFiniteField, "division by zero in 'y1/(0.5 - 0.5)'")),
    ("y1 * 1e999 / 0", 1.0, (NonFiniteField, "division by zero in 'y1*1e999/0'")),
    # the first error the walk meets is the one raised
    ("log(y1) * (1 / (0.5 - 0.5))", -0.5,
     (NonFiniteField, "log of jet with non-positive value -5.000e-01")),
    ("log(y1) * (1 / (0.5 - 0.5))", 0.5, (NonFiniteField, "division by zero in '1/(0.5 - 0.5)'")),
    # negative integer powers of jets: the reciprocal's powers
    ("(y1 + 2) ^ -2", 0.5, None),
    ("x1 * y1 ^ -3 - y2 ^ -1", 0.5, None),
    ("y1 ^ -1", 0.0, (NonFiniteField, "reciprocal of a jet with zero constant term")),
])
def test_tape_defers_errors_and_takes_negative_powers_as_the_walk(text, y1, expected):
    p = bundle_point([0.3, -0.2], [y1, 0.7])
    for order in (0, 1, 3):
        tape, walk = _seeded_outcomes(parse(text), p, order)
        assert tape == walk, (text, order)
        if expected is None:
            assert isinstance(tape[0], bytes), (text, order)
        else:
            assert tape == expected, (text, order)


def test_infinite_literals_print_and_divide_by_zero_typed():
    assert parse(to_string(parse("1e999"))) == Num(math.inf)
    with pytest.raises(NonFiniteField, match=r"^division by zero in 'y1\*1e999/0'$"):
        evaluate(parse("y1 * 1e999 / 0"), {"y1": 1.0})
