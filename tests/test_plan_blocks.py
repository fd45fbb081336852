"""Block band plans and the frozen kernel formed and checked in row blocks.

A band plan is a (pieces, panels) block built by broadcasting; it must
hold bit for bit the numbers of the per-abscissa formula
lo + (k + 0.5) * width, and sum each piece as its row alone.
``LinearizedSystem.frozen_pairs`` forms A = K * dG/dx(x0), K and psi's
sums at the guess in blocks of rows; they must hold the bits of the same
values formed on the whole plan at once (the sums, once added into psi
at the guess), and the check of A, one sum per
block, must name the first bad value in row-major order, as the whole
plan does.  The reference values come from the expressions themselves,
evaluated on the whole plan at once (``helpers.frozen_values``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandvie import quadrature
from bandvie.collocation import DEFAULT_MOMENT_PANELS, collocation_nodes
from bandvie.errors import SolverError
from bandvie.expr import Expression
from bandvie.pc import PIECE_PANELS
from bandvie.problem import (
    BLOCK_VALUES,
    CurveFamily,
    VolterraSystem,
    linearize,
    validate,
)
from bandvie.quadrature import band_edges, band_plan

from helpers import (
    frozen_values,
    guess_sums_reference,
    whole_plan_frozen,
)

#: piece starts: zero, so that subnormal lengths stay subnormal widths, or
#: any moderate number
_LOS = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))

#: piece lengths from the smallest subnormal up
_LENGTHS = st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-300, 10.0))

_PIECES = st.lists(st.tuples(_LOS, _LENGTHS), min_size=0, max_size=6)


def _edges(pairs):
    """Band edges of one band whose segment at time r is (lo, lo + length)
    of ``pairs[r]``."""
    lo = np.array([a for a, _ in pairs], dtype=float)
    hi = lo + np.array([b for _, b in pairs], dtype=float)
    return np.column_stack([lo, hi])


def _per_abscissa(lo, hi, panels):
    """lo + (k + 0.5) * width, one numpy scalar operation at a time."""
    width = (hi - lo) / np.float64(panels)
    return np.array([lo + (np.float64(k) + 0.5) * width
                     for k in range(panels)])


def _assert_piece_sums_are_row_sums(plan, values):
    """Each piece sums as its row alone, as a 1-D sum of one piece adds."""
    sums = plan.piece_sums(values)
    assert sums.shape == (plan.abscissas.shape[0],)
    assert np.array_equal(sums, [row.sum() for row in values])


@settings(max_examples=60)
@given(pairs=_PIECES, panels=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_block_plan_equals_the_per_abscissa_formula(pairs, panels, seed):
    edges = _edges(pairs)
    [plan] = band_plan(edges, panels)
    # a length below half an ulp of lo leaves an empty segment: no piece
    kept = np.flatnonzero(edges[:, 1] > edges[:, 0])
    assert plan.abscissas.shape == (kept.size, panels)
    assert np.array_equal(plan.piece_time, kept)
    for p, (lo, hi) in enumerate(edges[kept]):
        assert np.array_equal(plan.abscissas[p], _per_abscissa(lo, hi, panels))
        assert plan.piece_width[p] == (hi - lo) / panels
    values = np.random.default_rng(seed).standard_normal(plan.abscissas.shape)
    _assert_piece_sums_are_row_sums(plan, values)


def test_block_plan_of_an_empty_band_and_of_one_piece():
    [empty] = band_plan(_edges([]), 7)
    assert empty.abscissas.shape == (0, 7)
    assert empty.piece_sums(np.empty((0, 7))).shape == (0,)
    [one] = band_plan(_edges([(0.0, 5e-324)]), 3)
    assert np.array_equal(one.abscissas[0], _per_abscissa(0.0, 5e-324, 3))
    assert one.piece_width[0] == 5e-324 / 3


_SLOPES = st.lists(st.floats(0.0, 0.99), min_size=0, max_size=3).map(sorted)


@settings(max_examples=40)
@given(slopes=_SLOPES, horizon=st.floats(0.1, 3.0),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       panels=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_band_plan_blocks_over_linear_curve_families(slopes, horizon,
                                                     fractions, panels, seed):
    curves = CurveFamily(horizon, tuple(f"{c!r}*t" for c in slopes))
    times = np.array(fractions) * horizon
    edges = band_edges(times, curves)
    rng = np.random.default_rng(seed)
    plans = list(band_plan(edges, panels))
    assert [plan.band for plan in plans] == list(range(1, len(slopes) + 2))
    for plan in plans:
        # uncut, a piece per time whose band segment is not empty, each
        # the midpoint rule on that segment alone
        lo, hi = edges[:, plan.band - 1], edges[:, plan.band]
        kept = np.flatnonzero(hi > lo)
        assert plan.abscissas.shape == (kept.size, panels)
        assert np.array_equal(plan.piece_time, kept)
        for p, r in enumerate(kept):
            mids, width = quadrature.midpoints(lo[r], hi[r], panels)
            assert np.array_equal(plan.abscissas[p], mids)
            assert plan.piece_width[p] == width
        values = rng.standard_normal(plan.abscissas.shape)
        _assert_piece_sums_are_row_sums(plan, values)


def _moment_plan(system, band=1, degree=4, panels=DEFAULT_MOMENT_PANELS):
    """A band's collocation plan and the outer times, its nodes."""
    nodes = collocation_nodes(system.curves.horizon, degree)
    plans = band_plan(band_edges(nodes, system.curves), panels)
    return list(plans)[band - 1], nodes


def _frozen_pass(lin, plan, times):
    """Every pair of one :meth:`LinearizedSystem.frozen_pairs` pass on
    ``plan``, (i, A, K), A copied out of the buffer that the next pair
    overwrites; and what the pass added into psi at the guess, from 0."""
    buffer = np.empty(2 * plan.piece_width.size * plan.panels)
    guess = np.zeros((lin.n_equations, times.size))
    return [(i, a.copy(), kernel) for i, a, kernel in
            lin.frozen_pairs(plan, times, buffer, guess)], guess


def _one_equation(kernel):
    return VolterraSystem(curves=CurveFamily(1.0, ("t/2",)),
                          kernels=[[kernel, "1"]], nonlinearities=[["x", "x"]],
                          rhs=["t"], unknown_of_band=(1, 1))


def test_a_finite_kernel_whose_sum_overflows_is_not_reported():
    # every block of rows sums to inf, but no value of A is inf
    system = _one_equation("1e308")
    plan, times = _moment_plan(system)
    [(_, a, _)], _ = _frozen_pass(linearize(system), plan, times)
    step = max(1, BLOCK_VALUES // plan.panels)
    with np.errstate(over="ignore"):
        assert np.add.reduce(a[:step], axis=None) == np.inf
    assert np.all(a == 1e308)
    assert not any("frozen kernel" in d.condition for d in validate(system))


@pytest.mark.parametrize("kernel", ["sqrt(0.3-s)", "exp(2000*s)"])
def test_a_bad_value_in_a_block_is_named_as_on_the_flat_plan(kernel):
    # the rows of later nodes turn bad at smaller column indices, so only
    # the first bad value in row-major order is the one the flat plan names
    system = _one_equation(kernel)
    plan, times = _moment_plan(system)
    with pytest.raises(SolverError) as block:
        _frozen_pass(linearize(system), plan, times)
    t = times[plan.piece_time, None]
    with np.errstate(all="ignore"):
        bad = ~np.isfinite(system.kernels[0][0](t=t, s=plan.abscissas))
    r, c = divmod(int(np.argmax(bad.ravel())), plan.panels)
    assert tuple(np.argwhere(bad.T)[0]) != (c, r)
    assert str(block.value) == (
        f"non-finite frozen kernel in equation 1, band 1 at t = "
        f"{t[r, 0]:.6g}, s = {plan.abscissas[r, c]:.6g}")


def test_a_g_equal_x_pair_takes_k_as_a_and_evaluates_no_g_x(model01,
                                                              monkeypatch):
    lin = linearize(model01)
    evaluated = []
    call = Expression.__call__

    def counting(self, *args, **kwargs):
        evaluated.append(self)
        return call(self, *args, **kwargs)

    for band in (1, 2):
        plan, times = _moment_plan(model01, band)
        kvs, _ = whole_plan_frozen(lin, plan, times)
        evaluated.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Expression, "__call__", counting)
            pairs, guess = _frozen_pass(lin, plan, times)
        # the two kernels only: per block of rows for band 1's K with s,
        # once on the column of times for band 2's K free of s; no dG/dx,
        # and no guess to evaluate it at
        blocks = 1
        if band == 1:
            blocks = -(-plan.piece_width.size
                       // max(1, BLOCK_VALUES // plan.panels))
            assert blocks > 1
        kernels = [row[band - 1] for row in model01.kernels]
        assert len(evaluated) == 2 * blocks
        assert all(e is k for e, k in zip(
            evaluated, [kernels[0]] * blocks + [kernels[1]] * blocks))
        assert [i for i, *_ in pairs] == [0, 1]
        assert not guess.any()
        for (_, a, kernel), kv in zip(pairs, kvs):
            assert kernel is None
            assert a.tobytes() == np.ascontiguousarray(kv).tobytes()


def test_a_nonlinear_pair_gets_the_product_of_its_factors(sys2):
    lin = linearize(sys2)
    plan, times = _moment_plan(sys2)
    kvs, gvs, _ = frozen_values(lin, 1, times[plan.piece_time, None],
                                plan.abscissas)
    pairs, _ = _frozen_pass(lin, plan, times)
    assert [i for i, *_ in pairs] == [0, 1]
    for i, a, kernel in pairs:
        assert a.shape == plan.abscissas.shape
        assert np.array_equal(kernel, kvs[i])
        assert a.tobytes() == (kvs[i] * gvs[i]).tobytes()


def test_origin_factors_hold_one_as_the_slope_of_g_equal_x(scalar):
    lin = linearize(scalar)
    weights, gx00, a00 = lin._origin
    # band 2 has G = x: slope 1 and A = K
    assert gx00[0, 1] == 1.0 and a00[0, 1] == weights[0, 1]
    # band 1: K, dG/dx and A at t = s = 0, K and A times the slope jump
    kvs, gvs, avs = frozen_values(lin, 1, 0.0, np.zeros(1))
    jump = float(scalar.curves.alpha_prime(1, 0.0))
    assert weights[0, 0] == kvs[0][0] * jump
    assert gx00[0, 0] == gvs[0][0]
    assert a00[0, 0] == avs[0][0] * jump


def _pass_system():
    """Every kind of pair of the pass: K with s, K = 1 - t (a column) and
    K = -1 (a constant), G = x, G a polynomial and a G that uses s."""
    return VolterraSystem(
        curves=CurveFamily(1.0, ("t/2",)),
        kernels=[["1+t*s", "1-t"], ["-1", "s*(t+s)"]],
        nonlinearities=[["x+s*x^2", "x^2"], ["x", "3*x+x^3"]],
        rhs=["t", "t^2"], guess=["0.9*cos(t)", "0.9*sin(t)"])


def _plans(system, cut):
    """The band plans over the collocation nodes of degree 12, one 8000-panel
    row per node, or over a 256-segment mesh cut at its nodes, 4 panels
    per piece; and their outer times."""
    if not cut:
        times = collocation_nodes(system.curves.horizon, 12)
        return list(band_plan(band_edges(times, system.curves),
                              DEFAULT_MOMENT_PANELS)), times
    times = np.linspace(0.0, system.curves.horizon, 257)[1:]
    edges = band_edges(times, system.curves, snap=times[:-1])
    return list(band_plan(edges, PIECE_PANELS, times[:-1])), times


@pytest.mark.parametrize("cut", [False, True])
def test_blocked_pass_holds_the_bits_of_the_whole_plan(cut):
    system = _pass_system()
    lin = linearize(system)
    plans, times = _plans(system, cut)
    buffer = np.empty(2 * max(p.piece_width.size * p.panels for p in plans))
    for plan in plans:
        assert plan.piece_width.size * plan.panels > 2 * BLOCK_VALUES
        kvs, avs = whole_plan_frozen(lin, plan, times)
        guess = guess_sums_reference(lin, plan, times)
        kept = lin.nonlinear_equations[plan.band - 1]
        seen = []
        at_guess = np.zeros((lin.n_equations, times.size))
        for i, a, kernel in lin.frozen_pairs(plan, times, buffer, at_guess):
            seen.append(i)
            assert a.tobytes() == avs[i].tobytes()
            # the pair's sums are added into its row before it is yielded
            expected = np.zeros(times.size)
            if i in kept:
                np.add.at(expected, plan.piece_time,
                          guess[i] * plan.piece_width)
            assert at_guess[i].tobytes() == expected.tobytes()
            if i not in kept:
                assert kernel is None
                continue
            # a K free of s stays a broadcast view, as on the whole plan
            assert kernel.strides == kvs[i].strides
            assert np.array_equal(kernel, kvs[i])
        assert seen == list(range(lin.n_equations))


@pytest.mark.parametrize("cut", [False, True])
def test_a_bad_value_in_a_later_block_is_named_as_on_the_whole_plan(cut):
    # band 2 runs from t/2 to t: sqrt(0.9 - s) is first nan at the last
    # node of the collocation plan, and on the cut plan many blocks of
    # rows after the first
    system = VolterraSystem(curves=CurveFamily(1.0, ("t/2",)),
                            kernels=[["1", "sqrt(0.9-s)"]],
                            nonlinearities=[["x", "x"]], rhs=["t"],
                            unknown_of_band=(1, 1))
    lin = linearize(system)
    plans, times = _plans(system, cut)
    plan = plans[1]
    buffer = np.empty(2 * plan.piece_width.size * plan.panels)
    with pytest.raises(SolverError) as blocked:
        list(lin.frozen_pairs(plan, times, buffer, np.zeros((1, times.size))))
    t = times[plan.piece_time, None]
    with np.errstate(all="ignore"):
        bad = ~np.isfinite(system.kernels[0][1](t=t, s=plan.abscissas))
    r, c = np.argwhere(bad)[0]
    assert r * plan.panels >= 2 * BLOCK_VALUES
    assert str(blocked.value) == (
        f"non-finite frozen kernel in equation 1, band 2 at t = "
        f"{t[r, 0]:.6g}, s = {plan.abscissas[r, c]:.6g}")
