from pathlib import Path

import numpy as np
import pytest

from bandvie import quadrature
from bandvie.collocation import (
    CollocationDiscretization,
    ConditioningWarning,
    PolynomialSolution,
    collocation_nodes,
    flatten_index,
    solve_linear_collocation,
)
from bandvie.errors import SolverError
from bandvie.problem import (
    CurveFamily,
    VolterraSystem,
    linearize,
)

from helpers import (
    callable_values,
    composite_midpoint,
    initial_values,
    system_rhs,
    unflatten_index,
)

REF_ERRORS_2X2 = {2: (9.82294e-3, 6.72940e-2), 3: (1.60472e-3, 2.35676e-2),
                5: (6.67315e-6, 3.95344e-4), 8: (1.72968e-8, 1.80165e-7)}
REF_AGGREGATE_3X3 = {2: 3.44752e-2, 5: 9.59747e-5, 8: 4.21286e-8}


def sup_errors(system, solution, samples=2001):
    out = []
    for i in range(1, system.n_components + 1):
        ts = np.linspace(0.0, system.component_domain(i), samples)
        exact = np.broadcast_to(
            np.asarray(system.exact[i - 1](t=ts), float), ts.shape)
        out.append(float(np.max(np.abs(exact - solution.component_values(i, ts)))))
    return out


def test_flattening_bijection():
    for n, m in ((1, 1), (2, 3), (3, 5)):
        seen = set()
        for i in range(1, n + 1):
            for k in range(1, m + 1):
                r = flatten_index(i, k, m)
                assert unflatten_index(r, m) == (i, k)
                seen.add(r)
        assert seen == set(range(n * m))


def test_collocation_nodes():
    assert np.allclose(collocation_nodes(2.0, 4), [0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        collocation_nodes(2.0, 0)


@pytest.mark.parametrize("kwargs, name", [
    (dict(panels=0), "panels"), (dict(panels=-3), "panels"),
    (dict(panels=2.5), "panels"), (dict(degree=2.5), "degree"),
    (dict(degree=True), "degree"), (dict(degree=0), "degree")])
def test_one_shot_collocation_rejects_unusable_counts(model01, kwargs, name):
    # a count is not truncated (2.5 is not degree 2, True not degree 1),
    # and one below its minimum is named before any plan is laid; the
    # one-shot solve takes no panels (a TypeError naming it), only the
    # constructor does
    with pytest.raises(TypeError if name == "panels" else ValueError,
                       match=name):
        solve_linear_collocation(model01, **kwargs)
    with pytest.raises(ValueError, match=name):
        CollocationDiscretization(linearize(model01),
                                  **{"degree": 3, **kwargs})


def test_moment_unit_kernel_single_band():
    system = VolterraSystem(
        curves=CurveFamily(2.0, ()),
        kernels=[["1"]], nonlinearities=[["x"]], rhs=["t"])
    disc = CollocationDiscretization(linearize(system), degree=1)
    # matrix entries integrate against (s/T)^l, so an entry times T is the
    # moment; integral of s over (0, 2) is t_k^2 / 2 = 2
    assert disc.matrix[0, 0] * 2.0 == pytest.approx(2.0, abs=1e-10)


def test_moment_zero_length_band_is_zero():
    # alpha_1(t) = t leaves band 2 empty at every node; it adds nothing
    def disc(curves, kernels):
        system = VolterraSystem(
            curves=CurveFamily(1.0, curves), kernels=[kernels],
            nonlinearities=[["x"] * len(kernels)], rhs=["t"],
            unknown_of_band=[1] * len(kernels))
        return CollocationDiscretization(linearize(system), degree=2)

    two_bands = disc(("t",), ["1", "1"])
    assert np.all(two_bands.zeroth_moments[:, :, 1] == 0.0)
    assert np.array_equal(two_bands.matrix, disc((), ["1"]).matrix)


def test_moment_model01_hand_value(model01):
    # band 1 at t_k = 2 is (0, 1); integral of (3 + s) s ds = 11/6
    disc = CollocationDiscretization(linearize(model01), degree=4)
    # column (1, 1) only sees band 1; the entry times T is the moment
    got = disc.matrix[flatten_index(1, 4, 4), flatten_index(1, 1, 4)] * 2.0
    assert got == pytest.approx(11.0 / 6.0, abs=5e-8)
    # independent brute force over the same rule agrees to roundoff
    brute = composite_midpoint(lambda s: (3 + s) * s, 0.0, 1.0, 8000)
    assert got == pytest.approx(brute, abs=1e-12)


def _rhs_entry(disc, a0, i, k):
    """F_ik: f_i(t_k) minus the constant part a0 carried by each band."""
    lin = disc.lin
    value = float(system_rhs(disc)[0][i - 1, k - 1])
    for j in range(1, lin.n_bands + 1):
        value -= (a0[lin.unknown_of_band[j - 1] - 1]
                  * disc.zeroth_moments[i - 1, k - 1, j - 1])
    return value


def test_rhs_entry_zero_kernel_returns_rhs_value():
    # equation 1 has a zero kernel on band 1, which carries a0 = 3
    system = VolterraSystem(
        curves=CurveFamily(1.0, ("t/2",)),
        kernels=[["0", "1"], ["1", "1"]],
        nonlinearities=[["x", "x"], ["x", "x"]], rhs=["t^2", "t"])
    disc = CollocationDiscretization(linearize(system), degree=2)
    got = _rhs_entry(disc, [3.0, 0.0], 1, 2)
    assert got == pytest.approx(1.0, abs=1e-14)


def test_rhs_entry_model01_against_brute_force(model01):
    disc = CollocationDiscretization(linearize(model01), degree=1)
    a0 = initial_values(model01)    # a single node at t = 2
    got = _rhs_entry(disc, a0, 1, 1)
    f1 = float(model01.rhs[0](t=2.0))
    brute = f1 \
        - a0[0] * composite_midpoint(
            lambda s: model01.kernels[0][0](t=2.0, s=s), 0.0, 1.0, 2000) \
        - a0[1] * composite_midpoint(
            lambda s: np.ones_like(s), 1.0, 2.0, 2000)
    assert got == pytest.approx(brute, abs=1e-9)


def test_polynomial_component_values():
    sol = PolynomialSolution(np.zeros((1, 4)), (1.0,))
    assert float(sol.component_values(1, 0.7)) == 0.0
    sol = PolynomialSolution(np.array([[1.0, 2.0]]), (3.0,))
    assert float(sol.component_values(1, 3.0)) == 7.0


def test_manufactured_polynomial_recovered(model01):
    # same linear kernels, exact solution t^2 in both components, f known
    # only through 2000-panel quadrature
    lin = linearize(model01)

    def make_f(i):
        def f(t):
            total = 0.0
            for seg in quadrature.decompose(t, model01.curves):
                if seg.is_empty:
                    continue
                kern = model01.kernels[i][seg.band - 1]
                total += composite_midpoint(
                    lambda s: np.broadcast_to(
                        np.asarray(kern(t=t, s=s), float), s.shape) * s ** 2,
                    seg.lo, seg.hi, 2000)
            return total
        return f

    disc = CollocationDiscretization(lin, degree=3, panels=2000)
    # the same 2000-panel rule on both sides keeps the discrete system
    # consistent, so the quadratic is recovered to solver roundoff
    sol = disc.solve(callable_values([make_f(0), make_f(1)], disc.times),
                     [0.0, 0.0])
    assert np.allclose(sol.coefficients,
                       [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
                       atol=1e-8)
    assert float(sol.component_values(1, 0.5)) == pytest.approx(0.25, abs=1e-8)
    assert float(sol.component_values(2, 0.5)) == pytest.approx(0.25, abs=1e-8)


def test_model01_matches_reference_errors(model01):
    sol = solve_linear_collocation(model01, degree=5)
    e1, e2 = sup_errors(model01, sol)
    assert REF_ERRORS_2X2[5][0] / 10 <= e1 <= REF_ERRORS_2X2[5][0] * 10
    assert REF_ERRORS_2X2[5][1] / 10 <= e2 <= REF_ERRORS_2X2[5][1] * 10


def test_model02_matches_reference_aggregate(model02):
    sol = solve_linear_collocation(model02, degree=8)
    agg = float(np.sqrt(np.sum(np.square(sup_errors(model02, sol)))))
    target = REF_AGGREGATE_3X3[8]
    assert target / 10 <= agg <= target * 10


def test_error_decreases_monotonically_in_degree(model01, model02):
    for system in (model01, model02):
        previous = None
        for m in (2, 3, 5, 8):
            sol = solve_linear_collocation(system, degree=m)
            agg = float(np.sqrt(np.sum(np.square(sup_errors(system, sol)))))
            if previous is not None:
                assert agg < previous, (system.name, m)
            previous = agg


def test_high_degree_warns_and_reports_condition(model01):
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_linear_collocation(model01, degree=12)
    assert any(issubclass(w.category, ConditioningWarning) for w in caught)
    assert sol.condition_number > 1e10
    # degree 12 still resolves the solution near the conditioning floor
    agg = float(np.sqrt(np.sum(np.square(sup_errors(model01, sol)))))
    assert agg <= 1e-6


def test_conditioning_warning_names_the_callers_line(sys2):
    # however deep in bandvie the matrix is built, the warning points at
    # the first frame outside the package: here, this file
    import warnings

    from bandvie.newton import iterate

    for build in (lambda: iterate(sys2, degree=12, max_iters=1),
                  lambda: CollocationDiscretization(linearize(sys2), 12)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build()
        found = [w for w in caught
                 if issubclass(w.category, ConditioningWarning)]
        assert len(found) == 1
        assert Path(found[0].filename).resolve() == Path(__file__).resolve()


def test_degree_15_is_flagged_numerically_singular(model01):
    # the monomial system passes the relative pivot threshold at degree 12
    # but not at 15; the failure names the problem instead of returning noise
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        with pytest.raises(SolverError, match="singular"):
            solve_linear_collocation(model01, degree=15)


def test_a_failed_factorization_keeps_no_plan_in_its_traceback(model01):
    # the error's traceback holds the constructor's frame: the band plans,
    # the kernels on them and the power table are freed all the same
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        with pytest.raises(SolverError, match="singular") as info:
            CollocationDiscretization(linearize(model01), degree=15)
    frames, tb = [], info.value.__traceback__
    while tb is not None:
        frames.append(tb.tb_frame)
        tb = tb.tb_next
    init = [f for f in frames
            if f.f_code is CollocationDiscretization.__init__.__code__]
    assert len(init) == 1 and init[0].f_locals["self"]._psi is None
    assert not [name for f in frames for name, v in f.f_locals.items()
                if isinstance(v, np.ndarray) and v.size >= 15 * 100]


def test_solve_is_deterministic_and_reuses_matrix(model01):
    lin = linearize(model01)
    disc = CollocationDiscretization(lin, degree=5)
    matrix_before = disc.matrix.copy()
    rhs = system_rhs(disc)
    a = disc.solve(*rhs)
    b = disc.solve(*rhs)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert np.array_equal(disc.matrix, matrix_before)


def test_scalar_problem_collocation_via_shared_unknown(scalar):
    # two bands accumulate into one block column; degree 2 must recover the
    # exact quadratic of the linearized-at-exact problem up to quadrature
    lin = linearize(scalar, scalar.exact_iterate())
    from bandvie.newton import PsiEvaluator

    # psi sums on the plan the moments were taken from
    disc = CollocationDiscretization(lin, degree=2)
    evaluator = PsiEvaluator(lin, disc)
    sol = disc.solve(evaluator.values(lin.x0),
                     lin.derivative_at_zero(lin.x0))
    assert np.allclose(sol.coefficients, [[0.0, 0.0, 1.0]], atol=1e-7)


def test_non_finite_rhs_names_equation_node_and_time(model01):
    disc = CollocationDiscretization(linearize(model01), degree=5)
    values, derivative_at_zero = system_rhs(disc)
    values[1, 2] = np.nan
    with pytest.raises(SolverError, match=r"right-hand side of equation 2 is "
                                          r"nan at node 3 \(t = 1\.2\)"):
        disc.solve(values, derivative_at_zero)


@pytest.mark.parametrize("shape", [(2, 4), (1, 5), (10,)])
def test_rhs_of_the_wrong_shape_names_the_expected_one(model01, shape):
    disc = CollocationDiscretization(linearize(model01), degree=5)
    with pytest.raises(SolverError, match=r"right-hand side has shape "
                       rf"\({shape[0]},.*expected \(2, 5\)"):
        disc.solve(np.zeros(shape), np.zeros(2))
