import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conspar.errors import EvaluationError, ExpressionError
from conspar.expressions import (
    FUNCTIONS,
    Call,
    Neg,
    Num,
    Var,
    _first_bad_x,
    parse_expression,
)


def test_literal_zero():
    assert parse_expression("0")(0.37) == 0.0


def test_logistic_at_half():
    assert parse_expression("x*(1-x)")(0.5) == 0.25


def test_exp_with_unary_minus():
    e = parse_expression("exp(-2*x)+1")
    assert abs(e(1.0) - (math.exp(-2) + 1)) <= 1e-15


def test_precedence_and_power():
    assert parse_expression("2+3*x^2")(1.0) == 5.0
    assert parse_expression("1-2*x")(0.25) == 0.5
    # power binds right: 2^3^2 = 2^9
    assert parse_expression("2^3^2")(0.0) == 512.0


def test_all_functions():
    e = parse_expression("exp(x)+log(x+1)+sin(x)+cos(x)+sqrt(x)+abs(0-x)")
    v = e(0.5)
    expected = (
        math.exp(0.5)
        + math.log(1.5)
        + math.sin(0.5)
        + math.cos(0.5)
        + math.sqrt(0.5)
        + 0.5
    )
    assert abs(v - expected) <= 1e-15


def test_vectorized_matches_scalar():
    e = parse_expression("sin(3*x)/(x+2)")
    xs = np.linspace(0, 1, 17)
    vec = e(xs)
    assert vec.shape == xs.shape
    for xi, vi in zip(xs, vec):
        assert vi == e(float(xi))


def test_syntax_error_carries_offset():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("1 + * 2")
    assert exc.value.offset == 4


def test_unknown_identifier():
    with pytest.raises(ExpressionError):
        parse_expression("tan(x)")
    with pytest.raises(ExpressionError):
        parse_expression("y + 1")


def test_unbalanced_paren():
    with pytest.raises(ExpressionError):
        parse_expression("exp(x")
    with pytest.raises(ExpressionError):
        parse_expression("(1+x))")


def test_empty_expression():
    with pytest.raises(ExpressionError):
        parse_expression("   ")


def test_division_by_zero_carries_x():
    e = parse_expression("1/(x-1/2)")
    with pytest.raises(EvaluationError) as exc:
        e(0.5)
    assert exc.value.x == 0.5
    with pytest.raises(EvaluationError):
        e(np.linspace(0, 1, 3))  # hits 0.5


def test_nonfinite_value_raises():
    with pytest.raises(EvaluationError):
        parse_expression("log(0-1+x)")(0.3)


def test_alternate_variable():
    f = parse_expression("1+sin(t)", variable="t")
    assert abs(f(2.0) - (1 + math.sin(2.0))) < 1e-15
    with pytest.raises(ExpressionError):
        parse_expression("x+1", variable="t")


# canonical form round trip: the reparse must agree bit for bit

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.5, allow_nan=False).map(
        lambda v: f"{v:.3f}"
    ),
    st.just("x"),
)


@st.composite
def _expr_text(draw, depth=0):
    if depth >= 3:
        return draw(_leaf)
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return draw(_leaf)
    if kind == 1:
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        a = draw(_expr_text(depth + 1))
        b = draw(_expr_text(depth + 1))
        if op == "/":
            b = f"({b}+10.5)"  # keep denominators away from zero
        return f"({a}{op}{b})"
    if kind == 2:
        fn = draw(st.sampled_from(["sin", "cos", "exp", "abs"]))
        inner = draw(_expr_text(depth + 1))
        if fn == "exp":
            inner = f"({inner})/100"
        return f"{fn}({inner})"
    if kind == 3:
        return f"(-{draw(_expr_text(depth + 1))})"
    return f"({draw(_expr_text(depth + 1))})^2"


@given(_expr_text())
@settings(max_examples=150, deadline=None)
def test_canonical_round_trip(text):
    e1 = parse_expression(text)
    e2 = parse_expression(e1.canonical())
    assert e1.root == e2.root
    xs = np.random.default_rng(0).random(1000)
    v1, v2 = e1(xs), e2(xs)
    assert np.max(np.abs(v1 - v2)) <= 1e-15 * max(1.0, float(np.max(np.abs(v1))))


# the compiled closure against the tree walk it replaced


def _tree_eval(node, x):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_tree_eval(node.operand, x)
    if isinstance(node, Call):
        with np.errstate(all="ignore"):
            return FUNCTIONS[node.name](_tree_eval(node.arg, x))
    left = _tree_eval(node.left, x)
    right = _tree_eval(node.right, x)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        bad = np.asarray(right) == 0
        if np.any(bad):
            raise EvaluationError("division by zero", _first_bad_x(x, bad))
        return left / right
    with np.errstate(all="ignore"):
        return np.power(left, right)


def _tree_call(e, x):
    scalar = np.isscalar(x) or np.ndim(x) == 0
    out = np.asarray(_tree_eval(e.root, float(x) if scalar else np.asarray(x, dtype=float)))
    bad = ~np.isfinite(out)
    if np.any(bad):
        raise EvaluationError("non-finite value", _first_bad_x(x, bad))
    return float(out) if scalar else out + np.zeros(np.shape(x))


def _outcome(fn, x):
    try:
        return "value", fn(x)
    except EvaluationError as exc:
        return "error", (str(exc), exc.x)


CLOSURE_CORPUS = [
    # every function, power, unary minus, constants and constant subtrees
    "exp(x)", "log(x+1)", "sin(3*x)", "cos(x)^2", "sqrt(x)", "abs(x-0.5)",
    "x^3", "2^x", "x^0.5^2", "-x", "-(x-1)*(-2)", "3", "-0", "2*3+x",
    "exp(1)*x-log(2)/7", "(1+2)^(x+1)", "x/(1+x^2)", "1-2*x+0.1*sin(7*x)",
    "sqrt(abs(x-0.3012)-0.001)", "x*(1-x)*(1/3)",
    # division by zero: at a variable point, and by a constant zero
    "1/(x-0.5)", "1/0", "x/(2-2)", "(1/0)*x",
    # non-finite values: at some points, everywhere, by overflow
    "log(x-0.5)", "log(0)", "sqrt(x-1)", "exp(1000*x)", "x^(-1)",
]
CLOSURE_INPUTS = [0.0, 0.25, 0.5, 1.0, np.float64(0.75), np.array(0.5),
                  np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 401)[::-1],
                  np.array([[0.2, 0.5], [0.9, 0.1]])]


@pytest.mark.parametrize("text", CLOSURE_CORPUS)
def test_closure_matches_tree_walk(text):
    e = parse_expression(text)
    for x in CLOSURE_INPUTS:
        got, want = _outcome(e, x), _outcome(lambda v: _tree_call(e, v), x)
        assert got[0] == want[0], (text, x)
        if got[0] == "error":
            assert got[1] == want[1], (text, x)
            continue
        assert type(got[1]) is type(want[1])
        assert np.shape(got[1]) == np.shape(want[1])
        np.testing.assert_array_equal(got[1], want[1])


def test_error_paths_name_the_first_bad_x():
    xs = np.linspace(0.0, 1.0, 5)
    for text, kind, x in [("1/(x-0.5)", "division by zero", 0.5),
                          ("1/0", "division by zero", 0.0),
                          ("log(x-0.5)", "non-finite value", 0.0),
                          ("log(0)", "non-finite value", 0.0)]:
        with pytest.raises(EvaluationError, match=kind) as exc:
            parse_expression(text)(xs)
        assert exc.value.x == x


def test_result_is_a_fresh_array():
    xs = np.linspace(0.0, 1.0, 5)
    out = parse_expression("x")(xs)
    assert out is not xs
    out[0] = 7.0
    assert xs[0] == 0.0


def test_constant():
    assert parse_expression("2*3").constant == 6.0
    assert parse_expression("-exp(0)").constant == -1.0
    assert parse_expression("x+1").constant is None
    assert parse_expression("log(0)").constant is None
    assert parse_expression("1/0").constant is None
