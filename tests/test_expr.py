import math

import numpy as np
import pytest

from bandvie.errors import EvaluationError, ExpressionSyntaxError
from bandvie.expr import parse

# expressions exercised by the derivative and round-trip batteries; points
# are kept where log/sqrt stay in-domain
BATTERY = [
    "1+t+s",
    "sin(t/2)",
    "3*x + x^3",
    "(1+2*t)*x",
    "t^2 - s*t + 4",
    "exp(-t)*cos(2*t)",
    "sqrt(t+1)",
    "log(t+2)/(t+3)",
    "t^s",
    "2^t",
    "sin(t)^3*cos(t)/4",
    "-t^2 + (-t)^2",
    "1 − t",  # unicode minus
]


def test_parse_and_evaluate_examples():
    assert parse("1+t+s").evaluate({"t": 2, "s": 3}) == 6.0
    assert parse("sin(t/2)").evaluate({"t": math.pi}) == 1.0
    assert parse("3*x + x^3").evaluate({"x": 2}) == 14.0
    assert parse("t^2").evaluate({"t": 0.5}) == 0.25
    assert parse("1+t-s").evaluate({"t": 1, "s": 1}) == 1.0
    assert parse("(1+2*t)*x").evaluate({"t": 0.5, "x": 3}) == 6.0


def test_precedence():
    assert parse("2+3*4").evaluate({}) == 14.0
    assert parse("2^3^2").evaluate({}) == 512.0
    assert parse("-t^2").evaluate({"t": 2}) == -4.0  # ^ binds tighter than unary -
    assert parse("2*-3").evaluate({}) == -6.0
    assert parse("2^-2").evaluate({}) == 0.25
    assert parse("(2+3)*4").evaluate({}) == 20.0


def test_syntax_errors_carry_offset():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse("1 + * 2")
    assert exc.value.offset == 4
    with pytest.raises(ExpressionSyntaxError):
        parse("(1+t")
    with pytest.raises(ExpressionSyntaxError):
        parse("")
    with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
        parse("1 + y")
    with pytest.raises(ExpressionSyntaxError, match="unknown function"):
        parse("tan(t)")
    with pytest.raises(ExpressionSyntaxError):
        parse("sin + 1")


def test_evaluation_domain_errors():
    with pytest.raises(EvaluationError):
        parse("log(t)").evaluate({"t": -1.0})
    with pytest.raises(EvaluationError):
        parse("log(t)").evaluate({"t": 0.0})
    with pytest.raises(EvaluationError):
        parse("sqrt(t)").evaluate({"t": -4.0})
    with pytest.raises(EvaluationError):
        parse("t^(-1)").evaluate({"t": 0.0})
    with pytest.raises(EvaluationError):
        parse("t^0.5").evaluate({"t": -2.0})
    with pytest.raises(EvaluationError):
        parse("1/t").evaluate({"t": 0.0})
    with pytest.raises(EvaluationError, match="unbound"):
        parse("t+s").evaluate({"t": 1.0})


def test_differentiate_examples():
    d = parse("x + x^2").diff("x")
    assert d.evaluate({"x": 1}) == 3.0
    d = parse("sin(t/2)").diff("t")
    assert d.evaluate({"t": 0}) == 0.5
    d = parse("3*x + x^3").diff("x")
    assert d.evaluate({"x": 0}) == 3.0


def _sample_bindings(rng, count=50):
    for _ in range(count):
        yield {
            "t": float(rng.uniform(0.05, 2.0)),
            "s": float(rng.uniform(0.05, 2.0)),
            "x": float(rng.uniform(-1.5, 1.5)),
        }


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(42)
    step = 1e-6
    for text in BATTERY:
        e = parse(text)
        for wrt in sorted(e.free_variables):
            d = e.diff(wrt)
            for bindings in _sample_bindings(rng):
                hi = dict(bindings)
                lo = dict(bindings)
                hi[wrt] += step
                lo[wrt] -= step
                fd = (e.evaluate(hi) - e.evaluate(lo)) / (2 * step)
                assert abs(d.evaluate(bindings) - fd) <= 1e-6, (text, wrt)


def test_print_parse_round_trip_is_exact():
    rng = np.random.default_rng(7)
    for text in BATTERY:
        e = parse(text)
        back = parse(str(e))
        for bindings in _sample_bindings(rng, count=100):
            assert back.evaluate(bindings) == e.evaluate(bindings), text


def test_round_trip_preserves_negative_constant_powers():
    # a negative constant base must keep its parentheses under ^
    e = parse("(0-1.5)^2 * t").diff("t")
    assert parse(str(e)).evaluate({"t": 3.0}) == e.evaluate({"t": 3.0})


def test_vectorized_call_matches_scalar_evaluate():
    rng = np.random.default_rng(3)
    for text in BATTERY:
        e = parse(text)
        ts = rng.uniform(0.05, 2.0, size=12)
        ss = rng.uniform(0.05, 2.0, size=12)
        xs = rng.uniform(-1.5, 1.5, size=12)
        vec = np.broadcast_to(np.asarray(e(t=ts, s=ss, x=xs), float), ts.shape)
        for k in range(12):
            scalar = e.evaluate({"t": ts[k], "s": ss[k], "x": xs[k]})
            # numpy's vectorized libm may differ from scalar math by an ulp
            assert vec[k] == pytest.approx(scalar, rel=1e-14)


def test_evaluation_is_deterministic():
    e = parse("sin(t)*exp(s) - t^3/7 + sqrt(x+2)")
    b = {"t": 0.911, "s": 0.37, "x": 0.218}
    values = {e.evaluate(b) for _ in range(10)}
    assert len(values) == 1


def test_unicode_minus():
    assert parse("1 − t").evaluate({"t": 0.25}) == 0.75
    assert parse("−2*t").evaluate({"t": 3.0}) == -6.0


def test_free_variables():
    assert parse("1+t+s").free_variables == {"t", "s"}
    assert parse("42").free_variables == set()
