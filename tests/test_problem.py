import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from bandvie import config
from bandvie.config import load_problem, problem_from_mapping
from bandvie.errors import ProblemDefinitionError
from bandvie.expr import parse
from bandvie.problem import (
    CurveFamily,
    ExpressionIterate,
    VolterraSystem,
    band_quadrature_residual,
    linearize,
    validate,
)
from bandvie.quadrature import BandPlan
from bandvie.registry import builtin, list_builtins

from helpers import nan_curve_system

ALL_BUILTINS = ("model01", "model02", "nonlinear-scalar",
                "nonlinear-sys1", "nonlinear-sys2")


def test_all_builtins_validate_clean():
    for name in ALL_BUILTINS:
        assert validate(builtin(name)) == [], name


def test_registry_metadata(model01, model02, scalar):
    assert model01.n_bands == 2
    assert model01.horizon == 2.0
    assert model02.n_bands == 3
    assert scalar.n_components == 1
    assert scalar.n_bands == 2
    assert scalar.n_equations == 1
    assert scalar.unknown_of_band == (1, 1)
    assert scalar.horizon == 1.0


def test_unknown_builtin_rejected():
    with pytest.raises(ProblemDefinitionError, match="unknown builtin"):
        builtin("model99")


def test_list_builtins():
    names = [n for n, _ in list_builtins()]
    assert len(names) == 5
    assert "model01" in names and "nonlinear-sys2" in names


def test_identity_band_map_everywhere_but_scalar():
    for name in ALL_BUILTINS:
        system = builtin(name)
        if name == "nonlinear-scalar":
            continue
        assert system.unknown_of_band == tuple(
            range(1, system.n_bands + 1)), name


def test_component_domains(model01, model02, scalar):
    assert model01.component_domains() == pytest.approx((1.0, 2.0))
    assert model02.component_domains() == pytest.approx((2 / 3, 4 / 3, 2.0))
    assert scalar.component_domains() == pytest.approx((1.0,))


def test_builtin_right_hand_sides_match_band_quadrature_oracle():
    # independent check of the stored closed forms: plugging the exact
    # solution into the original banded equations must give ~zero residual
    for name in ALL_BUILTINS:
        system = builtin(name)
        exact = system.exact_iterate()
        for t in np.linspace(0.08, system.curves.horizon, 9):
            res = band_quadrature_residual(system, exact, float(t), panels=4000)
            assert np.max(np.abs(res)) <= 5e-8, (name, t)


def test_registered_initial_guesses_stored(sys1, sys2):
    ts = np.linspace(0.0, 1.0, 7)
    g1 = sys1.guess_iterate()
    assert np.allclose(g1.component_values(1, ts), 0.4 * ts ** 2)
    assert np.allclose(g1.component_values(2, ts), 0.5 * ts ** 3)
    g2 = sys2.guess_iterate()
    assert np.allclose(g2.component_values(1, ts), 0.9 * np.cos(ts))
    assert np.allclose(g2.component_values(2, ts), 0.9 * np.sin(ts))


def test_validate_flags_bad_rhs(model01):
    broken = VolterraSystem(
        curves=model01.curves,
        kernels=model01.kernels,
        nonlinearities=model01.nonlinearities,
        rhs=["1+t", str(model01.rhs[1])],
        exact=model01.exact,
    )
    diags = validate(broken)
    assert any("f_1(0)" in str(d) for d in diags)


def test_validate_flags_infinite_rhs_slope_at_zero(model01):
    # f_1 = sqrt(t) has f_1(0) = 0, but the start values need f_1'(0) = inf;
    # t^0.5 evaluates its derivative 0.5*t^-0.5 at the Python float 0.0
    for f1 in ("sqrt(t)", "t^0.5"):
        system = VolterraSystem(
            curves=model01.curves, kernels=model01.kernels,
            nonlinearities=model01.nonlinearities,
            rhs=[f1, str(model01.rhs[1])],
            unknown_of_band=model01.unknown_of_band)
        diags = validate(system)
        assert [d.condition for d in diags] == ["f_1'(0) is not finite"], f1
        assert diags[0].witness == 0.0
        assert "inf" in diags[0].detail


def _scalar_with(curves=("t/2",), last_kernel="1", rhs="t"):
    """One equation, every band on one unknown, G = x."""
    return VolterraSystem(
        curves=CurveFamily(1.0, curves),
        kernels=[["1+t"] + ["1"] * (len(curves) - 1) + [last_kernel]],
        nonlinearities=[["x"] * (len(curves) + 1)], rhs=[rhs],
        unknown_of_band=(1,) * (len(curves) + 1))


@pytest.mark.parametrize("kwargs, expected", [
    # t^2*log(t) is 0*(-inf) = nan at 0, in value and slope; K is free of
    # s, so no frozen kernel turns nan along the nan band edges
    (dict(curves=("t/2+t^2*log(t)",)), [
        "alpha_1(0) != 0 at t = 0: value nan",
        "alpha'_{n-1}(0) must stay below 1 at t = 0: value nan"]),
    # the slope of sqrt(t)^3 is 3*sqrt(t)^2*(1/(2*sqrt(t))) = 0*inf at 0,
    # where its value is 0
    (dict(curves=("t/3+0.01*sqrt(t)^3", "2*t/3")), [
        "curve slopes at 0 out of order at t = 0: "
        "alpha'_1(0) = nan, alpha'_2(0) = 0.666667"]),
    # t*log(t) is nan at 0, and so is its slope log(t) + t*(1/t)
    (dict(rhs="t*log(t)"), [
        "f_1(0) != 0 at t = 0: value nan",
        "f_1'(0) is not finite at t = 0: value nan; the start values need "
        "it finite"]),
    # (t-s)/(t-s) is 0/0 on the diagonal: a fault of the diagonal, and of
    # the frozen kernel at t = s = 0
    (dict(last_kernel="(t-s)/(t-s)+1"), [
        "K_1,2(t, t) is not finite at t = 0: |value| = nan",
        "non-finite frozen kernel in equation 1, band 2 at t = 0: s = 0, "
        "along the initial guess"]),
    (dict(last_kernel="t-s"), [
        "K_1,2(t, t) vanishes at t = 0: |value| = 0.000e+00"]),
], ids=["curve", "slope", "rhs", "diagonal-nan", "diagonal-zero"])
def test_validate_flags_a_value_at_zero_or_on_the_diagonal(kwargs, expected):
    # each condition fails for a value that is not finite, too
    assert [str(d) for d in validate(_scalar_with(**kwargs))] == expected


def test_validate_names_a_curve_that_is_not_finite_inside():
    # alpha_1 is nan past t = 0.5; at t = 0 it is alpha_1(0)'s test
    assert [str(d) for d in validate(nan_curve_system())] == [
        "alpha_1 is not finite at t = 0.500501: value nan"]


def test_validate_names_data_that_is_nan_behind_a_factor_zero():
    # 0*e was folded to 0 when parsed: both systems validated clean, and
    # pc N = 8 solved the first to x = 2/3 although it is undefined for
    # t > 0.5
    def system(curve, rhs):
        return VolterraSystem(
            curves=CurveFamily(1.0, (curve,)), kernels=[["1", "2"]],
            nonlinearities=[["x", "x"]], rhs=[rhs], unknown_of_band=(1, 1))
    assert [str(d) for d in validate(system("t/2+0*sqrt(0.5-t)", "t"))] == [
        "alpha_1 is not finite at t = 0.500501: value nan"]
    assert [str(d) for d in validate(system("t/2", "t+0*log(t)"))] == [
        "f_1(0) != 0 at t = 0: value nan"]


def test_validate_names_a_non_finite_frozen_kernel(model01):
    # G_1,1 = sqrt(x) along the guess x0 = 0: dG/dx = 1/(2 sqrt(0)) = inf
    system = VolterraSystem(
        curves=model01.curves, kernels=model01.kernels,
        nonlinearities=[["sqrt(x)", "x"], ["x", "x"]], rhs=model01.rhs)
    assert [str(d) for d in validate(system)] == [
        "non-finite frozen kernel in equation 1, band 1 at t = 0: "
        "s = 0, along the initial guess"]


def test_validate_flags_swapped_curves(model02):
    swapped = VolterraSystem(
        curves=CurveFamily(2.0, ("t", "t/2")),
        kernels=model02.kernels,
        nonlinearities=model02.nonlinearities,
        rhs=model02.rhs,
    )
    diags = validate(swapped)
    assert any("ordering" in str(d) or "slopes" in str(d) for d in diags)


def test_validate_flags_component_count_mismatch(model01):
    # a band map with fewer components than equations never reaches
    # validate: the system is not built
    with pytest.raises(ProblemDefinitionError, match=r"unknown_of_band "
                       r"\(1, 1\) gives 1 component\(s\) for 2 equation"):
        VolterraSystem(
            curves=model01.curves,
            kernels=model01.kernels,
            nonlinearities=model01.nonlinearities,
            rhs=model01.rhs,
            unknown_of_band=(1, 1),
            guess=["0"],
        )


def _with_band2(model01, g, guess=None):
    """model01 with G_1,2 = g."""
    return VolterraSystem(
        curves=model01.curves,
        kernels=model01.kernels,
        nonlinearities=[["x", g], ["x", "x"]],
        rhs=model01.rhs,
        guess=guess,
    )


def test_validate_flags_a_g_that_never_evaluates_along_the_guess(model01):
    # log(x - 5) is nan at the guess 0 everywhere; its derivative 1/(x - 5)
    # is finite there, so only G itself is flagged
    diags = validate(_with_band2(model01, "log(x-5)"))
    assert [d.condition for d in diags] == [
        "non-finite G along the initial guess in equation 1, band 2"]


def test_validate_flags_an_overflowing_frozen_kernel(model01):
    # x*1e200*1e200 has the derivative 1e200*1e200 = inf, so the frozen
    # kernel K * dG/dx overflows along the guess
    diags = validate(_with_band2(model01, "x*1e200*1e200"))
    assert ("non-finite frozen kernel in equation 1, band 2"
            in [d.condition for d in diags])


def test_validate_checks_the_points_that_evaluate(model01):
    # sqrt(x) is nan at negative x, but validation evaluates G and dG/dx
    # only along the guess 1, where both are finite
    assert validate(_with_band2(model01, "sqrt(x)", guess=["1", "1"])) == []


def test_validate_names_a_g_that_is_not_finite_along_the_guess(model01):
    # log(x - 1) is nan at the guess 0, where its derivative 1/(x - 1) is
    # finite: left unflagged, the solve fails on psi's nan d/dt at t = 0
    diags = validate(_with_band2(model01, "log(x-1)"))
    assert [str(d) for d in diags] == [
        "non-finite G along the initial guess in equation 1, band 2 "
        "at t = 0: s = 0, G_1,2 = nan"]


def test_validate_accepts_a_g_defined_only_around_the_guess(model01):
    # log(x - 2) is nan for every x < 2 but finite along the guess 3
    assert validate(_with_band2(model01, "log(x-2)", guess=["3", "3"])) == []


def test_curve_derivatives_are_the_differentiators_own():
    curves = CurveFamily(1.0, ("t/2", "t^2/3"))
    assert curves.interior_prime == tuple(
        parse(a).diff("t") for a in ("t/2", "t^2/3"))
    # no derivative is taken from the caller
    with pytest.raises(TypeError):
        CurveFamily(1.0, ("t/2",), ("1/2",))


def _frozen_pass(lin, band, times, lo, hi, panels):
    """A and K per equation from one frozen-kernel pass on a midpoint plan
    of ``panels`` panels on one piece [lo, hi] per outer time; the plan."""
    plan = BandPlan(band=band, piece_time=np.arange(times.size),
                    piece_width=(hi - lo) / panels, piece_lo=lo,
                    offsets=np.arange(panels) + 0.5)
    buffer = np.empty(2 * plan.abscissas.size)
    guess = np.zeros((lin.n_equations, times.size))
    return [(a.copy(), kernel) for _, a, kernel in
            lin.frozen_pairs(plan, times, buffer, guess)], plan


def test_linearize_linear_system_freezes_to_plain_kernels(model01):
    lin = linearize(model01)
    times = np.random.default_rng(1).uniform(0.1, 2.0, size=10)
    for j in (1, 2):
        pairs, plan = _frozen_pass(lin, j, times, np.zeros(10), times, 5)
        for i, (frozen, _) in enumerate(pairs):
            raw = np.broadcast_to(np.asarray(model01.kernels[i][j - 1](
                t=times[:, None], s=plan.abscissas), float), frozen.shape)
            assert np.array_equal(frozen, raw)


def test_linearize_scalar_frozen_kernel_spot_check(scalar):
    # freezing G(s, x) = x + x^2 along x0(s) = s^2 multiplies the first-band
    # kernel by 1 + 2 s^2
    lin = linearize(scalar, scalar.exact_iterate())
    [(a, k)], plan = _frozen_pass(lin, 1, np.array([0.5]), np.zeros(1),
                                  np.array([0.9]), 3)
    s = plan.abscissas
    assert np.allclose(s, [[0.15, 0.45, 0.75]], rtol=0, atol=1e-15)
    assert np.array_equal(k, 1 + 0.5 + s)
    x0 = lin.x0.component_values(1, s)
    assert np.array_equal(a, k * scalar.g_x[0][0](s=s, x=x0))
    assert np.allclose(a, (1 + 0.5 + s) * (1 + 2 * s ** 2), atol=1e-14)


def test_expression_iterate_protocol(model01):
    it = ExpressionIterate(model01.exact, model01.component_domains())
    assert it.n_components == 2
    assert it.value_at_zero(1) == 1.0
    assert it.breakpoints_in(0.0, 2.0).size == 0
    ts = np.linspace(0, 1, 5)
    assert np.allclose(it.component_values(1, ts), np.cos(ts))


def test_start_value_matrix_model01(model01):
    lin = linearize(model01)
    assert np.allclose(lin.start_value_matrix(),
                       [[0.5, 0.5], [0.5, -0.5]], atol=1e-14)


def test_shape_validation():
    curves = CurveFamily(1.0, ("t/2",))
    with pytest.raises(ProblemDefinitionError):
        VolterraSystem(curves, [["1"]], [["x", "x"]], ["t"])
    with pytest.raises(ProblemDefinitionError):
        VolterraSystem(curves, [["1", "1"]], [["x", "x"]], ["t"],
                       unknown_of_band=(1,))
    with pytest.raises(ProblemDefinitionError):
        VolterraSystem(curves, [["1", "1"]], [["x", "x"]], ["t"],
                       unknown_of_band=(1, 3))


def _model01_with(model01, **changes):
    parts = dict(curves=model01.curves, kernels=model01.kernels,
                 nonlinearities=model01.nonlinearities, rhs=model01.rhs,
                 exact=model01.exact)
    parts.update(changes)
    return VolterraSystem(**parts)


@pytest.mark.parametrize("changes, entry, variable", [
    ({"kernels": [["1+t+s", "x"], ["1+t-s", "-1"]]}, "K_1,2", "x"),
    ({"nonlinearities": [["x", "x"], ["x", "t*x"]]}, "G_2,2", "t"),
    ({"rhs": ["s", "t"]}, "f_1", "s"),
    ({"exact": ["cos(t)", "x"]}, "exact_2", "x"),
    ({"guess": ["x", "0"]}, "guess_1", "x"),
], ids=["K", "G", "f", "exact", "guess"])
def test_entries_may_use_only_the_variables_of_their_role(
        model01, changes, entry, variable):
    with pytest.raises(ProblemDefinitionError,
                       match=f"{entry} may use only .*, but uses {variable}$"):
        _model01_with(model01, **changes)


def test_curves_may_use_only_t():
    with pytest.raises(ProblemDefinitionError,
                       match="alpha_1 may use only t, but uses s$"):
        CurveFamily(1.0, ("s/2",))


MODEL01_YAML = """\
name: model01-copy
n: 2
T: 2.0
alpha: ["t/2"]
K:
  - ["1+t+s", "1"]
  - ["1+t-s", "-1"]
G:
  - ["x", "x"]
  - ["x", "x"]
f:
  - "3*t*sin(t/2)/2 + sin(t/2) + 2*cos(t/2) - cos(t) - 1"
  - "t*sin(t/2)/2 + sin(t/2) - 2*cos(t/2) + cos(t) + 1"
exact: ["cos(t)", "sin(t)"]
"""


def test_config_round_trip(tmp_path):
    path = tmp_path / "model01.yaml"
    path.write_text(MODEL01_YAML)
    system = load_problem(path)
    assert system.name == "model01-copy"
    assert validate(system) == []
    exact = system.exact_iterate()
    res = band_quadrature_residual(system, exact, 1.3, panels=2000)
    assert np.max(np.abs(res)) <= 1e-6


def test_config_errors(tmp_path):
    with pytest.raises(ProblemDefinitionError, match="missing"):
        problem_from_mapping({"n": 2, "T": 1.0})
    with pytest.raises(ProblemDefinitionError, match="unknown config keys"):
        problem_from_mapping({"n": 1, "T": 1.0, "K": [["1"]], "G": [["x"]],
                              "f": ["t"], "bogus": 1})
    with pytest.raises(ProblemDefinitionError, match="mapping"):
        problem_from_mapping(["not", "a", "mapping"])
    with pytest.raises(ProblemDefinitionError):
        problem_from_mapping({"n": 2, "T": 1.0, "alpha": ["t/2"],
                              "K": [["1"]], "G": [["x", "x"]], "f": ["t"]})
    bad = tmp_path / "bad.yaml"
    bad.write_text("n: [unclosed")
    with pytest.raises(ProblemDefinitionError, match="cannot parse"):
        load_problem(bad)


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", ["bench/problems/sample_problem.yaml",
                                  "demos/sample_problem.yaml"])
def test_libyaml_and_python_loaders_build_the_same_mapping(path):
    text = (ROOT / path).read_text(encoding="utf-8")
    python = yaml.load(text, Loader=yaml.SafeLoader)
    assert isinstance(python, dict) and "K" in python
    assert yaml.load(text, Loader=config._LOADER) == python
    if hasattr(yaml, "CSafeLoader"):
        assert config._LOADER is yaml.CSafeLoader
        assert yaml.load(text, Loader=yaml.CSafeLoader) == python


@pytest.mark.parametrize("loader", ["module", "python"])
def test_malformed_config_cannot_be_parsed_with_either_loader(
        tmp_path, monkeypatch, loader):
    if loader == "python":
        monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    bad = tmp_path / "bad.yaml"
    bad.write_text("n: [unclosed")
    with pytest.raises(ProblemDefinitionError, match="cannot parse"):
        load_problem(bad)


def _mapping(**changes):
    data = {"n": 2, "T": 2.0, "alpha": ["t/2"],
            "K": [["1+t+s", "1"], ["1+t-s", "-1"]],
            "G": [["x", "x"], ["x", "x"]], "f": ["t", "t"]}
    data.update(changes)
    return data


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 0, -1.0,
                                     True, False, "2.0", None])
def test_config_horizon_must_be_a_positive_finite_number(horizon):
    with pytest.raises(ProblemDefinitionError) as exc:
        problem_from_mapping(_mapping(T=horizon))
    assert str(exc.value) == (
        f"horizon T must be a positive finite number, got {horizon!r}")


@pytest.mark.parametrize("n", [True, False, 0, 2.0])
def test_config_band_count_must_be_an_integer_not_a_bool(n):
    with pytest.raises(ProblemDefinitionError,
                       match=f"n must be a positive integer, got {n!r}$"):
        problem_from_mapping(_mapping(n=n))


def test_config_integer_horizon_is_accepted():
    horizon = problem_from_mapping(_mapping(T=2)).horizon
    assert horizon == 2.0 and isinstance(horizon, float)


@pytest.mark.parametrize("horizon", [-1.0, 0.0, math.nan, math.inf, True,
                                     np.nan, "1", 10**400])
def test_curve_family_rejects_a_bad_horizon(horizon):
    with pytest.raises(ProblemDefinitionError,
                       match="horizon T must be a positive finite number"):
        CurveFamily(horizon=horizon, interior=("t/2",))


def test_curve_family_accepts_numpy_and_integer_horizons():
    for horizon in (np.float64(1.5), 2, np.int64(3)):
        stored = CurveFamily(horizon=horizon, interior=()).horizon
        assert stored == horizon and type(stored) is float


def test_validate_names_a_non_finite_guess_inside_its_domain(model01):
    # component 2 lives on [0, 2], where sqrt(1-t) is nan past t = 1;
    # component 1 lives on [0, 1], where the same guess is finite
    def with_guess(guess):
        return VolterraSystem(
            curves=model01.curves, kernels=model01.kernels,
            nonlinearities=model01.nonlinearities, rhs=model01.rhs,
            unknown_of_band=model01.unknown_of_band, guess=guess)

    assert [str(d) for d in validate(with_guess(["0", "sqrt(1-t)"]))] == [
        "initial guess of component 2 is not finite at t = 1.001: "
        "value nan, inside its domain [0, 2]"]
    assert validate(with_guess(["sqrt(1-t)", "0"])) == []
