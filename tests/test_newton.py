import functools

import numpy as np
import pytest

from bandvie import newton, quadrature
from bandvie.collocation import PolynomialSolution
from bandvie.config import load_problem
from bandvie.errors import DivergenceError, ProblemDefinitionError, SolverError
from bandvie.newton import NORM_SAMPLES, correction_norm, iterate
from bandvie.pc import PIECE_PANELS, Mesh
from bandvie.problem import (
    CurveFamily,
    ExpressionIterate,
    LinearizedSystem,
    VolterraSystem,
)
from bandvie.registry import builtin
from bandvie.report import measure_errors

from helpers import composite_midpoint, psi


def brute_force_psi(system, x0, xm, t, panels=2000):
    """Independent Psi oracle: raw band-split quadrature of the bracket."""
    out = np.array([float(f(t=t)) for f in system.rhs])
    for seg in quadrature.decompose(t, system.curves):
        if seg.is_empty:
            continue
        comp = system.unknown_of_band[seg.band - 1]
        for i in range(system.n_equations):
            kern = system.kernels[i][seg.band - 1]
            g = system.nonlinearities[i][seg.band - 1]
            gx = system.g_x[i][seg.band - 1]

            def integrand(s):
                x0v = np.asarray(x0.component_values(comp, s), float)
                xmv = np.asarray(xm.component_values(comp, s), float)
                kv = np.broadcast_to(np.asarray(kern(t=t, s=s), float), s.shape)
                gxv = np.broadcast_to(np.asarray(gx(s=s, x=x0v), float), s.shape)
                gv = np.broadcast_to(np.asarray(g(s=s, x=xmv), float), s.shape)
                return kv * (gxv * xmv - gv)

            out[i] += composite_midpoint(
                integrand, seg.lo, seg.hi, panels)
    return out


def test_psi_at_zero_is_zero(scalar):
    x0 = scalar.guess_iterate()
    vals = psi(scalar, x0, x0, np.array([0.0]))
    assert vals.shape == (1, 1)
    assert vals[0, 0] == 0.0


def test_psi_reduces_to_f_for_linear_g(model02):
    x0 = model02.guess_iterate()
    xm = ExpressionIterate(["1+t", "sin(t)", "t^2"],
                           model02.component_domains())
    ts = np.linspace(0.1, 2.0, 20)
    vals = psi(model02, x0, xm, ts)
    expected = np.vstack([
        np.broadcast_to(np.asarray(f(t=ts), float), ts.shape)
        for f in model02.rhs])
    assert np.max(np.abs(vals - expected)) <= 1e-10


def test_psi_matches_brute_force_oracle(scalar, sys1):
    # the exact solutions as collocation iterates: t^2, and (t^2, t^3)
    for system, exact in ((scalar, [[0.0, 0.0, 1.0]]),
                          (sys1, [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])):
        x0 = system.guess_iterate()
        polynomial = PolynomialSolution(exact, system.component_domains())
        for xm in (x0, polynomial):
            ts = np.linspace(0.15, system.curves.horizon, 10)
            vals = psi(system, x0, xm, ts)
            for col, t in enumerate(ts):
                ref = brute_force_psi(system, x0, xm, float(t))
                # 1e-7 absorbs the 2000-panel error of the oracle itself
                assert np.max(np.abs(vals[:, col] - ref)) <= 1e-7


def test_psi_square_bracket_case():
    # G = x^2 frozen at x0 gives bracket 2 x0 xm - xm^2, which equals x0^2
    # when the iterate sits at the guess
    system = VolterraSystem(
        curves=CurveFamily(1.0, ()),
        kernels=[["1+t"]], nonlinearities=[["x^2"]], rhs=["t^3/3"],
        guess=["t"])
    x0 = system.guess_iterate()
    ts = np.linspace(0.2, 1.0, 5)
    vals = psi(system, x0, x0, ts)
    for col, t in enumerate(ts):
        expected = float(system.rhs[0](t=t)) + (1 + t) * t ** 3 / 3
        assert vals[0, col] == pytest.approx(expected, abs=1e-8)


class ValuesSolver:
    """A solver stand-in whose sampler reads ``component_values``; it keeps
    the grids of every sampler it makes."""

    def __init__(self):
        self.grids = []

    def sampler(self, grids):
        self.grids.append(grids)
        return lambda it: np.array([it.component_values(i, ts)
                                    for i, ts in enumerate(grids, 1)])


def test_correction_norm_cases():
    domains = (2.0,)
    a = ExpressionIterate(["cos(t)"], domains)
    assert correction_norm(a, a, [], ValuesSolver()) == 0.0
    b = ExpressionIterate(["cos(t) + 0.25"], domains)
    assert correction_norm(a, b, [], ValuesSolver()) == pytest.approx(
        0.25, abs=1e-14)
    c = ExpressionIterate(["0.9*cos(t)"], domains)
    assert correction_norm(a, c, [], ValuesSolver()) == pytest.approx(
        0.1, abs=1e-12)
    # the list keeps the grids, the one sampler the solver made of them
    # and the last iterate's values
    samples, solver = [], ValuesSolver()
    correction_norm(a, b, samples, solver)
    assert correction_norm(None, c, samples, solver) == pytest.approx(
        0.35, abs=1e-12)
    grids, _, values = samples
    assert grids.shape == values.shape == (1, NORM_SAMPLES)
    assert np.array_equal(grids[0], np.linspace(0.0, 2.0, NORM_SAMPLES))
    assert len(solver.grids) == 1 and solver.grids[0] is grids
    assert np.array_equal(values[0], c.component_values(1, grids[0]))


def test_non_finite_correction_names_the_component(model01):
    domains = model01.component_domains()
    a = ExpressionIterate(["cos(t)", "sin(t)"], domains)
    b = ExpressionIterate(["cos(t)", "sqrt(t-1)"], domains)
    with pytest.raises(SolverError, match=r"correction of component 2 is nan "
                                          r"at t = 0 \(previous 0\.0, next "
                                          r"nan\)$"):
        correction_norm(a, b, [], ValuesSolver())


def test_non_finite_guess_is_an_error_not_a_converged_run(model01):
    # the guess is nan on (1, 2]; with G = x the solver reads it only at
    # t = 0, so only the first correction sees it.  Validation rejects it
    # first; without validation the solver must name it
    system = VolterraSystem(
        curves=model01.curves, kernels=model01.kernels,
        nonlinearities=model01.nonlinearities, rhs=model01.rhs,
        unknown_of_band=model01.unknown_of_band, guess=["0", "sqrt(1-t)"])
    with pytest.raises(SolverError, match=r"^iteration 1: correction of "
                                          r"component 2 is nan at t = 1\.002"):
        iterate(system, method="collocation", degree=4, skip_validation=True)


@pytest.mark.parametrize("kwargs", [dict(method="collocation", degree=4),
                                    dict(method="pc", n_segments=32)])
def test_infinite_rhs_slope_at_zero_is_named(model01, kwargs):
    # f_1 = sqrt(t) has f_1(0) = 0 but f_1'(0) = inf: the start values are
    # undefined; the run used to stop on "tolerance" with nan values.
    # Validation rejects it; without validation the start-value solve does
    system = VolterraSystem(
        curves=model01.curves, kernels=model01.kernels,
        nonlinearities=model01.nonlinearities,
        rhs=["sqrt(t)", str(model01.rhs[1])],
        unknown_of_band=model01.unknown_of_band)
    with pytest.raises(SolverError, match=r"right-hand side of equation 1 at "
                                          r"t = 0 is inf"):
        iterate(system, skip_validation=True, **kwargs)


@pytest.mark.parametrize("kwargs", [dict(method="collocation", degree=4),
                                    dict(method="pc", n_segments=8)])
def test_a_slope_jump_at_zero_that_is_not_finite_is_named(tmp_path, kwargs):
    # alpha_1 = t/2 + t^2*log(t) has the slope nan at 0, which fails
    # validation; without it the t = 0 table names the first band whose
    # slope jump is not finite, before the start-value matrix is factorized
    cfg = tmp_path / "log-curve.yaml"
    cfg.write_text(
        'n: 2\nT: 1.0\nalpha: ["t/2+t^2*log(t)"]\n'
        'K: [["1+t+s", "1"], ["1+t-s", "-1"]]\n'
        'G: [["x", "x"], ["x", "x"]]\nf: ["t", "t"]\n')
    with pytest.raises(SolverError, match=(
            r"^the curve slopes at t = 0 jump by nan into band 1 "
            r"\(alpha'_0\(0\) = 0, alpha'_1\(0\) = nan\); the start values "
            r"need it finite$")):
        iterate(load_problem(cfg), skip_validation=True, **kwargs)


@pytest.mark.parametrize("kwargs", [dict(method="collocation", degree=4),
                                    dict(method="pc", n_segments=32)])
def test_non_finite_frozen_kernel_is_named_without_validation(model01,
                                                              kwargs):
    # G_1,1 = sqrt(x) along the guess x0 = 0 fails validation; without it
    # the set-up's frozen-kernel evaluation names the equation and band
    system = VolterraSystem(
        curves=model01.curves, kernels=model01.kernels,
        nonlinearities=[["sqrt(x)", "x"], ["x", "x"]], rhs=model01.rhs)
    with pytest.raises(SolverError, match=r"non-finite frozen kernel in "
                                          r"equation 1, band 1 at t = "):
        iterate(system, skip_validation=True, **kwargs)


def _count_frozen_kernel(monkeypatch):
    """Record (band, values) of every frozen-kernel evaluation: a pass on
    a plan, or a pair's K at t = s = 0 for the t = 0 table, the one
    evaluation of a single value."""
    calls = []
    frozen_pairs = LinearizedSystem.frozen_pairs
    kernel = LinearizedSystem._kernel

    def counting_pairs(self, plan, times, buffer, guess, reduce):
        calls.append((plan.band, plan.piece_width.size * plan.panels))
        return frozen_pairs(self, plan, times, buffer, guess, reduce)

    def counting_kernel(self, i, j, t, s, shape, out=None):
        if shape == (1,):
            calls.append((j, 1))
        return kernel(self, i, j, t, s, shape, out)

    monkeypatch.setattr(LinearizedSystem, "frozen_pairs", counting_pairs)
    monkeypatch.setattr(LinearizedSystem, "_kernel", counting_kernel)
    return calls


@pytest.mark.parametrize("name", ["model01", "nonlinear-sys2"])
def test_collocation_run_evaluates_the_frozen_kernel_once_per_band(
        name, monkeypatch):
    # the moments and psi share one plan: one frozen-kernel pass per band
    # on it, plus one evaluation per pair for the t = 0 values of the start
    # matrix
    system = builtin(name)
    calls = _count_frozen_kernel(monkeypatch)
    iterate(system, method="collocation", degree=4, max_iters=3, tol=1e-15)
    bands = range(1, system.n_bands + 1)
    at_zero = [(j, 1) for j in bands] * system.n_equations
    assert sorted(calls) == sorted(at_zero + [(j, 4 * 8000) for j in bands])
    # at other panel counts psi still sums on the moments' plan: no
    # 8000-panel plan of its own
    calls.clear()
    monkeypatch.setattr(newton, "CollocationDiscretization", functools.partial(
        newton.CollocationDiscretization, panels=500))
    iterate(system, method="collocation", degree=4, max_iters=3, tol=1e-15)
    assert sorted(calls) == sorted(at_zero + [(j, 4 * 500) for j in bands])


@pytest.mark.parametrize("name", ["model01", "nonlinear-scalar",
                                  "nonlinear-sys2"])
def test_pc_run_cuts_the_bands_and_evaluates_the_pieces_once(name,
                                                             monkeypatch):
    # the step coefficients, the history weights and psi share one
    # 4-panel plan of every piece: one band_plan call, one frozen-kernel
    # pass per band on its plan, one evaluation per pair for the t = 0
    # values of the start matrix, and none on the unknown ranges alone
    system = builtin(name)
    mesh = Mesh.uniform(system.curves.horizon, 16)
    cuts = mesh.nodes[1:-1]
    expected = []
    for plan in quadrature.band_plan(quadrature.band_edges(
            mesh.nodes[1:], system.curves, snap=cuts), PIECE_PANELS, cuts):
        expected += [(plan.band, 1)] * system.n_equations
        expected.append((plan.band, PIECE_PANELS * plan.piece_lo.size))
    planned = []
    calls = _count_frozen_kernel(monkeypatch)
    band_plan = quadrature.band_plan

    def counting_plan(*args):
        plans = list(band_plan(*args))
        planned.append([(plan.band, plan.panels) for plan in plans])
        return iter(plans)

    monkeypatch.setattr(quadrature, "band_plan", counting_plan)
    iterate(system, method="pc", n_segments=16, max_iters=3, tol=1e-15)
    assert sorted(calls) == sorted(expected)
    assert planned == [[(j, PIECE_PANELS)
                        for j in range(1, system.n_bands + 1)]]


def test_linear_problem_converges_in_one_step(model01):
    for kwargs in (dict(method="collocation", degree=5),
                   dict(method="pc", n_segments=32)):
        sol, rep = iterate(model01, max_iters=20, tol=1e-12, **kwargs)
        assert rep.stop_reason == "tolerance"
        assert len(rep.records) == 2
        # the first step does all the work, the second changes nothing
        assert rep.records[1].correction <= 1e-10


def test_scalar_pc_matches_reference_order(scalar):
    sol, rep = iterate(scalar, method="pc", n_segments=32, max_iters=10,
                       tol=1e-12)
    eps = rep.records[-1].aggregate_error
    assert 0.0286877 / 10 <= eps <= 0.0286877 * 10
    assert len(rep.records) <= 10


def test_sys1_matches_reference_and_decreases(sys1):
    sol, rep = iterate(sys1, method="collocation", degree=3, max_iters=20,
                       tol=1e-14)
    by_index = {r.index: r.aggregate_error for r in rep.records}
    assert 0.446955 / 10 <= by_index[1] <= 0.446955 * 10
    assert 2.98137e-9 / 10 <= by_index[20] <= 2.98137e-9 * 10
    assert by_index[20] < by_index[10] < by_index[1]


def test_sys2_ratio_sequence_is_contractive(sys2):
    sol, rep = iterate(sys2, method="collocation", degree=5, max_iters=12,
                       tol=1e-14)
    ratios = rep.correction_ratios
    assert len(ratios) >= 5
    # the first step may overshoot; from then on the map contracts
    assert all(r < 1.0 for r in ratios[1:6])


def test_sys2_pc_at_64_segments_reaches_the_tolerance(sys2):
    # psi summed by a prefix sum over the band left a roundoff floor near
    # 1e-11 under the correction, and the run stalled to the cap of 60
    sol, rep = iterate(sys2, method="pc", n_segments=64, max_iters=60)
    assert rep.stop_reason == "tolerance"
    assert len(rep.records) <= 45


def test_frozen_operator_reuse(model01, monkeypatch):
    # the inner discretization must be assembled exactly once per run
    import bandvie.newton as newton_mod

    built = []
    original = newton_mod.CollocationDiscretization

    class Counting(original):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(newton_mod, "CollocationDiscretization", Counting)
    iterate(model01, method="collocation", degree=4, max_iters=6, tol=1e-15)
    assert sum(built) == 1


def test_start_values_are_factorized_once_per_run(model01, monkeypatch):
    # the start-value matrix is the only n x n matrix factorized; collocation
    # reuses its factorization at every outer iteration
    from bandvie import linalg

    shapes = []
    original = linalg.LUFactorization.__init__

    def counting(self, a):
        shapes.append(np.shape(a))
        original(self, a)

    monkeypatch.setattr(linalg.LUFactorization, "__init__", counting)
    _, report = iterate(model01, method="collocation", degree=4, max_iters=6,
                        tol=1e-15)
    assert len(report.records) > 1
    assert shapes.count((2, 2)) == 1


def test_divergence_guard_raises_with_report():
    system = VolterraSystem(
        curves=CurveFamily(1.0, ("t/2",)),
        kernels=[["1", "1"]],
        nonlinearities=[["x+10*x^2", "x"]],
        rhs=["t^3/3 + 10*t^5/80"],
        unknown_of_band=(1, 1),
        exact=["t^2"],
        guess=["20"],
    )
    with pytest.raises(DivergenceError) as exc:
        iterate(system, method="pc", n_segments=24, max_iters=15, tol=1e-12)
    report = exc.value.report
    assert report.stop_reason == "divergence"
    assert len(report.records) >= 4
    assert report.records[-1].correction > 1e3 * report.records[-4].correction
    # the partial report still measures the errors of its iterates
    last = report.records[-1]
    assert (last.component_errors, last.aggregate_error) == measure_errors(
        last.iterate, system)
    assert last.aggregate_error > 0.0


def test_invalid_system_rejected(model01):
    broken = VolterraSystem(
        curves=model01.curves,
        kernels=model01.kernels,
        nonlinearities=model01.nonlinearities,
        rhs=["1+t", str(model01.rhs[1])],
    )
    with pytest.raises(ProblemDefinitionError, match="validation"):
        iterate(broken, method="collocation", degree=3)


def test_iterate_argument_validation(model01):
    with pytest.raises(ValueError):
        iterate(model01, method="pc")  # missing n_segments
    with pytest.raises(ValueError):
        iterate(model01, method="collocation")  # missing degree
    with pytest.raises(ValueError):
        iterate(model01, method="bogus", degree=3)
    with pytest.raises(ValueError):
        iterate(model01, method="collocation", degree=3, tol=0.0)


def test_records_are_indexed_from_one(sys2):
    _, rep = iterate(sys2, method="collocation", degree=4, max_iters=5,
                     tol=1e-14)
    assert [r.index for r in rep.records] == [1, 2, 3, 4, 5]
    assert rep.stop_reason == "max-iterations"


@pytest.mark.parametrize("kwargs, name", [
    (dict(tol=float("nan")), "tol"), (dict(tol=float("inf")), "tol"),
    (dict(panels=0), "panels"), (dict(panels=10.7), "panels"),
    (dict(degree=2.5), "degree"), (dict(degree=True), "degree"),
    (dict(max_iters=2.5), "max_iters"),
    (dict(method="pc", degree=None, n_segments=32.5), "n_segments"),
    (dict(method="pc", degree=None, n_segments=np.float64(32)),
     "n_segments"),
    (dict(max_iters=None), "max_iters"), (dict(tol="1e-3"), "tol"),
    (dict(tol=True), "tol"),
    (dict(method="pc", degree=5, n_segments=8), "degree"),
    (dict(n_segments=8), "n_segments"),
    (dict(method="pc", degree=None, n_segments=8, panels=50), "panels")])
def test_iterate_rejects_unusable_numbers(model01, kwargs, name):
    # iterate takes no panels: the panel count of a collocation plan is the
    # constructor's, and an unknown keyword is a TypeError naming it
    with pytest.raises(TypeError if name == "panels" else ValueError,
                       match=name):
        iterate(model01, **{"method": "collocation", "degree": 3, **kwargs})
