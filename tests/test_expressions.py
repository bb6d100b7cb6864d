"""Coefficient-expression grammar: parsing, printing, generic evaluation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import ExpressionError, NonFiniteField, bundle_point
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
from finslerkit.jets import eval_taylor

from jet_oracles import jet_partial


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
