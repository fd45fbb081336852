"""The residual oracle walked in row blocks against its whole-plan formula.

``band_quadrature_residual`` forms each band plan's abscissas, K and G a
row block at a time and reads the solution once per plan
(``plan_values``).  For step functions and expression iterates it must
hold the bits of the whole-plan formula (``helpers.residual_reference``),
whatever the block size; a polynomial's values on a block are a BLAS
product with the plan's reference powers instead of Horner's rule at
every abscissa, and agree to a few ulps of the terms.  A time outside
[0, T] or not finite is refused before any plan is built.
"""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bandvie import problem, quadrature
from bandvie.collocation import PolynomialSolution
from bandvie.config import load_problem
from bandvie.errors import SolverError
from bandvie.newton import iterate
from bandvie.pc import Mesh, PiecewiseConstantSolution, solve_linear_pc
from bandvie.problem import band_quadrature_residual
from bandvie.registry import builtin

from helpers import repeated_curve_system, residual_reference

SAMPLE_PROBLEM = (Path(__file__).resolve().parents[1]
                  / "bench" / "problems" / "sample_problem.yaml")

#: a polynomial's residual may miss the whole-plan formula by this many
#: ulps of the sum of the magnitudes of its terms
POLYNOMIAL_ULPS = 4


def _system(name):
    if name == "sample-problem":
        return load_problem(SAMPLE_PROBLEM)
    if name == "repeated":
        return repeated_curve_system()
    return builtin(name)


def _times(system):
    """The CLI's residual times, t = 0, and a few between mesh nodes."""
    horizon = system.curves.horizon
    return np.concatenate(([0.0], np.linspace(0.0, horizon, 51)[1:],
                           np.linspace(0.013, 0.987, 7) * horizon))


def _solution(system, kind):
    """A solution of ``system``: ("pc", N), ("exact",) or ("guess",)."""
    if kind[0] == "pc":
        return solve_linear_pc(system, n_segments=kind[1])
    if kind[0] == "exact":
        return system.exact_iterate()
    return system.guess_iterate()


def _polynomial(system, degree):
    """The collocation solution of ``degree``; where that solve fails its
    pivot check (model02 at m = 11, 12), the least-squares fit of that
    degree to the exact solution."""
    try:
        return iterate(system, method="collocation", degree=degree,
                       skip_validation=True)[0]
    except SolverError:
        ts = np.linspace(0.0, system.curves.horizon, 200)
        exact = system.exact_iterate()
        return PolynomialSolution(
            [np.polynomial.polynomial.polyfit(
                ts, exact.component_values(i, ts), degree)
             for i in range(1, system.n_components + 1)],
            system.component_domains())


@pytest.mark.parametrize("name, kind", [
    ("sample-problem", ("pc", 32)), ("sample-problem", ("pc", 128)),
    ("model01", ("pc", 16)), ("model01", ("exact",)),
    ("model02", ("pc", 12)), ("model02", ("pc", 48)),
    ("nonlinear-scalar", ("pc", 24)), ("nonlinear-scalar", ("exact",)),
    ("repeated", ("pc", 8)), ("repeated", ("guess",))])
def test_steps_and_expressions_hold_the_bits_of_the_whole_plan(name, kind):
    system = _system(name)
    solution = _solution(system, kind)
    times = _times(system)
    got = band_quadrature_residual(system, solution, times)
    assert np.array_equal(got, residual_reference(system, solution, times))


@pytest.mark.parametrize("name", ["model01", "model02", "sample-problem"])
@pytest.mark.parametrize("degree", range(2, 13))
def test_polynomials_agree_with_the_whole_plan_to_a_few_ulps(name, degree):
    system = _system(name)
    solution = _polynomial(system, degree)
    times = _times(system)
    got = band_quadrature_residual(system, solution, times)
    ref = residual_reference(system, solution, times)
    scale = residual_reference(system, solution, times, magnitude=True)
    assert np.all(np.abs(got - ref) <= POLYNOMIAL_ULPS * np.spacing(scale))
    # a time alone may fall in a block of one row, another BLAS path
    for r in range(0, times.size, 9):
        single = band_quadrature_residual(system, solution, float(times[r]))
        assert np.all(np.abs(single - got[:, r])
                      <= POLYNOMIAL_ULPS * np.spacing(scale[:, r]))


def _row_counts(monkeypatch):
    """Record the number of rows of every block the oracle forms."""
    counts = []
    rows = quadrature.BandPlan.rows

    def counting(plan, sl):
        block = rows(plan, sl)
        counts.append(block.shape[0])
        return block
    monkeypatch.setattr(quadrature.BandPlan, "rows", counting)
    return counts


def test_a_piece_above_the_block_size_is_a_block_of_its_own(model01,
                                                            monkeypatch):
    # four segments share the panels: each piece gets BLOCK_VALUES + 1
    panels = 4 * (problem.BLOCK_VALUES + 1)
    times = np.array([0.3, 1.1, 2.0])
    counts = _row_counts(monkeypatch)
    for solution in (solve_linear_pc(model01, n_segments=4),
                     model01.exact_iterate()):
        counts.clear()
        got = band_quadrature_residual(model01, solution, times, panels)
        assert counts and set(counts) == {1}
        assert np.array_equal(
            got, residual_reference(model01, solution, times, panels))
    poly = _polynomial(model01, 6)
    got = band_quadrature_residual(model01, poly, times, panels)
    ref = residual_reference(model01, poly, times, panels)
    scale = residual_reference(model01, poly, times, panels, magnitude=True)
    assert np.all(np.abs(got - ref) <= POLYNOMIAL_ULPS * np.spacing(scale))


def test_a_last_block_of_fewer_rows_holds_the_bits(monkeypatch):
    # 3 rows per block; the repeated-curve system's bands hold piece counts
    # that are not multiples of 3
    system = repeated_curve_system()
    panels = 56
    times = np.linspace(0.0, 1.0, 12)
    counts = _row_counts(monkeypatch)
    # a step function on 8 segments gives each piece panels / 8
    for solution, share in ((solve_linear_pc(system, n_segments=8), 7),
                            (system.guess_iterate(), panels)):
        monkeypatch.setattr(problem, "BLOCK_VALUES", 3 * share + 2)
        counts.clear()
        got = band_quadrature_residual(system, solution, times, panels)
        assert max(counts) == 3 and {1, 2} & set(counts)
        assert np.array_equal(
            got, residual_reference(system, solution, times, panels))


def _plan(lo, hi, panels):
    """The plan of one band whose segment at time r is (lo[r], hi[r])."""
    return next(quadrature.band_plan(np.column_stack([lo, hi]), panels))


def test_a_step_function_reads_every_abscissa_of_a_piece_beside_a_node():
    # a piece a few ulps long that starts on a node: its first abscissas
    # round onto the node, in the segment below, the last ones above it;
    # a piece across a node; and one at 0 whose first abscissa is 0
    mesh = Mesh.uniform(1.0, 8)
    solution = PiecewiseConstantSolution(
        mesh, [-1.0], [np.arange(1.0, 9.0)], (1.0,))
    node = mesh.nodes[3]
    pieces = [(0.0, 16 * 5e-324), (0.0, 0.125), (0.25, node),
              (node, node + 4 * np.spacing(node)), (node + 0.01, 0.5),
              (0.55, 0.7), (0.875, 1.0)]
    plan = _plan(*zip(*pieces), panels=16)
    values = solution.plan_values(1, plan)
    whole = solution.component_values(1, plan.abscissas)
    # a piece of 16 subnormals: its first abscissa rounds to 0, which
    # reads the start value, the others to the first segment
    assert whole[0, 0] == -1.0 and np.all(whole[0, 1:] == 1.0)
    assert np.unique(whole[3]).size == 2 and np.unique(whole[5]).size == 2
    for rows in (slice(0, 1), slice(1, 3), slice(3, 4), slice(4, 5),
                 slice(5, 7), slice(0, 7)):
        got = np.broadcast_to(values(rows, plan.rows(rows)),
                              whole[rows].shape)
        assert np.array_equal(got, whole[rows])
    # a block of pieces inside their segments is one column
    assert values(slice(1, 3), plan.rows(slice(1, 3))).shape == (2, 1)


@pytest.mark.parametrize("name, case", [
    ("pc N = 128", ("pc", 128)), ("collocation m = 8", ("collocation", 8))])
def test_an_oracle_call_peaks_below_one_and_a_half_megabytes(name, case):
    # the whole-plan formula peaked at 1.45 MB (pc) and 3.35 MB
    # (collocation) on the CLI's times
    system = _system("sample-problem")
    if case[0] == "pc":
        solution = solve_linear_pc(system, n_segments=case[1])
    else:
        solution = _polynomial(system, case[1])
    times = np.linspace(0.0, 1.0, 51)[1:]
    band_quadrature_residual(system, solution, times)
    tracemalloc.start()
    try:
        band_quadrature_residual(system, solution, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, name


def _refusing_plans(*args, **kwargs):
    raise AssertionError("a plan was built")


@pytest.mark.parametrize("times, first", [
    (1.5, "1.5"), (math.nan, "nan"), (-0.5, "-0.5"), (math.inf, "inf"),
    ([0.2, 1.0, 1.0 + 1e-15, -1.0, math.nan], "1.000000000000001")])
def test_a_time_outside_the_horizon_is_refused(times, first, monkeypatch):
    # unchecked, 1.5 read [nan, nan] for a step function and extrapolated
    # a polynomial; nan read [nan, nan]; -0.5 blamed the curves
    system = _system("sample-problem")
    solutions = (solve_linear_pc(system, n_segments=16),
                 _polynomial(system, 4), system.guess_iterate())
    monkeypatch.setattr(quadrature, "band_plan", _refusing_plans)
    for solution in solutions:
        with pytest.raises(ValueError, match=r"^t must be finite and lie in "
                                             r"\[0, T = 1\.0\], got "
                                             + re.escape(first) + "$"):
            band_quadrature_residual(system, solution, times)


def test_the_ends_of_the_horizon_are_times_of_the_oracle(model01):
    horizon = model01.curves.horizon
    solution = solve_linear_pc(model01, n_segments=8)
    got = band_quadrature_residual(model01, solution, [0.0, horizon])
    assert np.array_equal(
        got, residual_reference(model01, solution, [0.0, horizon]))
    # at t = 0 every band is empty, and the residual is -f(0)
    assert np.array_equal(got[:, 0], [-float(f(t=0.0)) for f in model01.rhs])
