import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bandvie.errors import ExpressionSyntaxError
from bandvie.expr import parse, polynomial_degree

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
    assert parse("1+t+s")(t=2, s=3) == 6.0
    assert parse("sin(t/2)")(t=math.pi) == 1.0
    assert parse("3*x + x^3")(x=2) == 14.0
    assert parse("t^2")(t=0.5) == 0.25
    assert parse("1+t-s")(t=1, s=1) == 1.0
    assert parse("(1+2*t)*x")(t=0.5, x=3) == 6.0


def test_precedence():
    assert parse("2+3*4")() == 14.0
    assert parse("2^3^2")() == 512.0
    assert parse("-t^2")(t=2) == -4.0  # ^ binds tighter than unary -
    assert parse("2*-3")() == -6.0
    assert parse("2^-2")() == 0.25
    assert parse("(2+3)*4")() == 20.0


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
    # domain violations give nan or inf, for Python numbers as for arrays
    assert np.isnan(parse("log(t)")(t=-1.0))
    assert parse("log(t)")(t=0.0) == -np.inf
    assert np.isnan(parse("sqrt(t)")(t=-4.0))
    assert parse("t^(-1)")(t=0.0) == np.inf
    assert np.isnan(parse("t^0.5")(t=-2.0))
    assert parse("1/t")(t=0.0) == np.inf
    assert parse("10^t")(t=400.0) == np.inf
    assert np.isnan(parse("log(t)")(t=np.array([-1.0]))[0])


def test_non_finite_constants():
    # a product that overflows stays unfolded, evaluates to inf and prints
    e = parse("1e200*1e200*t")
    assert e(t=1.0) == np.inf
    assert parse(str(e)) == e
    with pytest.raises(ExpressionSyntaxError, match="not finite") as exc:
        parse("1e400")
    assert exc.value.offset == 0
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse("0*1e400+t")
    assert exc.value.offset == 2


def test_a_product_with_zero_keeps_the_nan_of_its_other_factor():
    # 0*e was folded to 0, so an expression undefined on part of its
    # domain read as defined there
    assert np.isnan(parse("0*log(t)")(t=0.0))
    assert np.isnan(parse("t/2+0*sqrt(0.5-t)")(t=0.75))
    assert str(parse("t/2+0*sqrt(0.5-t)")) == "t/2+0*sqrt(0.5-t)"
    assert str(parse("x*0")) == "x*0"
    assert parse("x*0")(x=np.inf) != parse("x*0")(x=np.inf)
    # a product of two constants still folds
    assert str(parse("0*2+t")) == "t"
    assert str(parse("0*sqrt(4)+t")) == "t"


def test_derivatives_drop_a_term_with_a_factor_zero():
    # a derivative drops a term whose factor is 0, although the parser
    # keeps 0*e: the builtins' derivatives print without 0*x terms
    assert str(parse("3*x+x^3").diff("x")) == "3+3*x^2"
    assert str(parse("2*x^2+0.5").diff("x")) == "2*(2*x)"
    assert str(parse("t/2").diff("t")) == "0.5"
    assert str(parse("(2*t-t^2)/4").diff("t")) == "(2-2*t)*4/16"
    assert str(parse("x*0").diff("x")) == "0"


def test_differentiate_examples():
    d = parse("x + x^2").diff("x")
    assert d(x=1) == 3.0
    d = parse("sin(t/2)").diff("t")
    assert d(t=0) == 0.5
    d = parse("3*x + x^3").diff("x")
    assert d(x=0) == 3.0


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
                fd = (e(**hi) - e(**lo)) / (2 * step)
                assert abs(d(**bindings) - fd) <= 1e-6, (text, wrt)


def _wrapped(template, *parts):
    return st.tuples(*parts).map(lambda p: template.format(*p))


def _grown(children):
    """One more node over ``children``: every rule of the differentiator,
    log, sqrt and the general power on arguments kept positive."""
    return st.one_of(
        _wrapped("({}) + ({})", children, children),
        _wrapped("({}) - ({})", children, children),
        _wrapped("({}) * ({})", children, children),
        _wrapped("({}) / (1 + ({})^2)", children, children),
        _wrapped("-({})", children),
        _wrapped("({})^{}", children, st.sampled_from(["2", "3", "4"])),
        _wrapped("(1 + ({})^2)^({})", children, children),
        _wrapped("{}({})", st.sampled_from(["sin", "cos", "exp"]), children),
        _wrapped("{}(1 + ({})^2)", st.sampled_from(["log", "sqrt"]),
                 children),
    )


_TREES = st.recursive(st.sampled_from(["t", "s", "x", "1.5"]), _grown,
                      max_leaves=8)


@settings(max_examples=300)
@given(text=_TREES, data=st.data(), t=st.floats(0.1, 2.0),
       s=st.floats(0.1, 2.0), x=st.floats(-1.5, 1.5))
def test_derivative_of_generated_trees_matches_central_difference(
        text, data, t, s, x):
    # every derivative a run uses (f', the curve slopes, dG/dx) comes
    # from this differentiator, and this is its only check against finite
    # differences: validate() does not re-check them
    e = parse(text)
    assume(e.free_variables)
    wrt = data.draw(st.sampled_from(sorted(e.free_variables)))
    at = {"t": t, "s": s, "x": x}

    def central(step):
        hi, lo = dict(at), dict(at)
        hi[wrt] += step
        lo[wrt] -= step
        values = float(e(**hi)), float(e(**lo))
        assume(all(math.isfinite(v) and abs(v) < 1e4 for v in values))
        return (values[0] - values[1]) / (2 * step)

    coarse, fine = central(2e-4), central(1e-4)
    # the steps resolve e (not so where it oscillates fast); Richardson's
    # extrapolation then holds to within the coarse-to-fine change
    assume(abs(fine - coarse) <= 1e-3 * max(1.0, abs(fine)))
    extrapolated = fine + (fine - coarse) / 3
    assert abs(e.diff(wrt)(**at) - extrapolated) <= (
        1e-6 * max(1.0, abs(extrapolated)) + abs(fine - coarse)), text


def test_print_parse_round_trip_is_exact():
    rng = np.random.default_rng(7)
    for text in BATTERY:
        e = parse(text)
        back = parse(str(e))
        for bindings in _sample_bindings(rng, count=100):
            assert back(**bindings) == e(**bindings), text


def test_round_trip_preserves_negative_constant_powers():
    # a negative constant base must keep its parentheses under ^
    e = parse("(0-1.5)^2 * t").diff("t")
    assert parse(str(e))(t=3.0) == e(t=3.0)


def test_evaluation_is_deterministic():
    e = parse("sin(t)*exp(s) - t^3/7 + sqrt(x+2)")
    b = {"t": 0.911, "s": 0.37, "x": 0.218}
    values = {e(**b) for _ in range(10)}
    assert len(values) == 1


def test_unicode_minus():
    assert parse("1 − t")(t=0.25) == 0.75
    assert parse("−2*t")(t=3.0) == -6.0


def test_free_variables():
    assert parse("1+t+s").free_variables == {"t", "s"}
    assert parse("42").free_variables == set()


# signed zeros, subnormals, a value whose powers overflow, infinities, nan
# and ordinary numbers of both signs
POWER_INPUTS = np.concatenate((
    [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, 1e200, -1e200,
     np.inf, -np.inf, np.nan, 1.0, -1.0, -0.5, 1.0000000000000002],
    np.random.default_rng(3).uniform(-40.0, 40.0, 200)))


def _product_chain(a, n):
    if n == 2:
        return a * a
    if n == 3:
        return (a * a) * a
    return (a * a) * (a * a)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_small_integer_powers_are_product_chains(n):
    x = POWER_INPUTS
    with np.errstate(all="ignore"):
        cases = [(f"x^{n}", _product_chain(x, n), np.power(x, n)),
                 (f"(x+1)^{n}", _product_chain(x + 1, n), np.power(x + 1, n)),
                 (f"-x^{n}", -_product_chain(x, n), -np.power(x, n))]
    for text, chain, power in cases:
        got = parse(text)(x=x)
        assert np.array_equal(got, chain, equal_nan=True), text
        numbers = ~np.isnan(got)
        assert np.array_equal(np.signbit(got[numbers]),
                              np.signbit(chain[numbers])), text
        finite = np.isfinite(got) & np.isfinite(power)
        assert np.all(np.abs(got[finite] - power[finite])
                      <= 2 * np.spacing(np.abs(power[finite]))), text
        assert np.array_equal(np.isfinite(got), np.isfinite(power)), text


@pytest.mark.parametrize("text, exponent", [
    ("x^5", 5.0), ("x^2.5", 2.5), ("x^-2", -2.0), ("x^t", None)])
def test_other_powers_keep_numpy_power(text, exponent):
    x = POWER_INPUTS
    t = np.linspace(-3.0, 3.0, x.size)
    with np.errstate(all="ignore"):
        expected = np.power(x, t if exponent is None else exponent)
    assert np.array_equal(parse(text)(x=x, t=t), expected, equal_nan=True)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_small_integer_powers_keep_scalars_text_and_derivatives(n):
    for text in (f"x^{n}", f"(x+1)^{n}", f"-x^{n}"):
        e = parse(text)
        value = e(x=1.5)
        assert isinstance(value, np.float64), text
        assert e(x=np.asarray(1.5)) == value
        assert parse(str(e)) == e
    assert str(parse(f"x^{n}")) == f"x^{n}"
    derivative = f"{n}*x^{n - 1}" if n > 2 else "2*x"
    assert parse(f"x^{n}").diff("x") == parse(derivative)
    assert str(parse(f"x^{n}").diff("x")) == derivative


def test_constant_base_that_overflows_gives_inf():
    # 1e200^2 is not folded (the constant would not be finite)
    assert parse("1e200^2*t")(t=1.0) == np.inf


def test_unfolded_constant_operations_give_inf_or_nan():
    # powers and quotients of two constants that are not folded are numpy
    # arithmetic when evaluated, as the module docstring promises
    assert parse("1e100^5*t")(t=1.0) == np.inf
    value = parse("(0-2)^0.5*t")(t=1.0)
    assert isinstance(value, np.float64) and np.isnan(value)
    assert parse("1/0*t")(t=1.0) == np.inf
    assert np.isnan(parse("(0-2)^0.5*t")(t=np.ones(3))).all()


def test_constant_expressions_give_numpy_floats():
    # a constant tree skips the compiled source but keeps its numpy float
    for text, value in (("0", 0.0), ("-2.5", -2.5), ("2*3", 6.0)):
        e = parse(text)
        for arg in (0.5, np.ones(3)):
            got = e(t=arg)
            assert isinstance(got, np.float64) and got == value, text


POLYNOMIALS = [
    "x^2", "3*x + x^3", "x - x^2", "x + x^4", "x + x^2", "-x", "2",
    "x/3", "-(x - 2)^3/4", "(1 + x)*(2 - x)^2", "x^5 - 2*x^7",
    "(x^2 + 1)^3*x", "x*x*x - x^2/2", "0.5*(x - 1)^6", "-(-x)^3 + 1",
]


@pytest.mark.parametrize("text", POLYNOMIALS)
def test_polynomial_coefficients_reproduce_the_compiled_expression(text):
    # the coefficients of the interpolant at degree + 1 Chebyshev points
    # reproduce the expression: the degree bound is one
    expr = parse(text)
    degree = polynomial_degree(expr, 64)
    assert isinstance(degree, int)
    fit = np.polynomial.Chebyshev.interpolate(
        lambda x: np.broadcast_to(expr(x=x), np.shape(x)), degree,
        domain=[-2.0, 2.0])
    xs = np.random.default_rng(len(text)).uniform(-2.0, 2.0, 200)
    values = np.broadcast_to(expr(x=xs), xs.shape)
    assert np.max(np.abs(fit(xs) - values)) <= 1e-12 * max(
        1.0, np.max(np.abs(values)))


def test_polynomial_coefficients_in_order_with_the_top_kept():
    # a sum keeps its top degree where the coefficients cancel
    assert polynomial_degree(parse("x^2 - x^2"), 8) == 2
    assert polynomial_degree(parse("(1 + x)^2"), 8) == 2
    assert polynomial_degree(parse("2 - x/4"), 8) == 1
    assert polynomial_degree(parse("x^3*x^2"), 8) == 5
    # a constant that overflows is a constant, as the compiled form reads it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert polynomial_degree(parse("x + 10^400"), 8) == 1
    assert float(parse("x + 10^400")(x=1.0)) == math.inf


@pytest.mark.parametrize("text", [
    "s", "t", "sin(x)", "x^0.5", "x/x", "x*s", "x + t", "exp(x)",
    "x^-1", "2^x", "x^x", "x/0", "1/x", "x/(x - x + 2)",
    # an exponent that is not finite
    "x^(10^400)", "x^(10^400-10^400)"])
def test_non_polynomials_have_no_coefficients(text):
    assert polynomial_degree(parse(text), 64) is None


@pytest.mark.parametrize("text", ["x^5", "x^2*x^3", "(x^2 + 1)^3",
                                  "x^1e15", "(x + 1)^1e300"])
def test_polynomials_above_the_degree_bound_have_no_coefficients(text):
    assert polynomial_degree(parse(text), 4) is None
    assert polynomial_degree(parse("x^4 + x^2*x^2"), 4) == 4
