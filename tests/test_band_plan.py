"""The vectorized band plans against the per-time, per-piece loops they replace.

The ``_loop_*`` functions below are the loop implementations of the residual
oracle, the pc assembly, the psi plan and the collocation moments, kept as
references: the vectorized results must agree with them to 1e-12 of the
integral magnitude, and the psi plans must match bit for bit.  The
moments, products with a table of reference powers, must agree with an
exactly rounded sum of the loop's terms to 1e-13 of the sum of their
magnitudes.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from bandvie import collocation, quadrature
from bandvie.config import load_problem
from bandvie.errors import CurveOrderingError
from bandvie.newton import iterate
from bandvie.pc import PIECE_PANELS, Mesh, PCDiscretization, solve_linear_pc
from bandvie.problem import (
    CurveFamily,
    VolterraSystem,
    band_quadrature_residual,
    linearize,
)
from bandvie.registry import builtin

from helpers import (
    empty_band_system,
    guess_reference,
    nan_curve_system,
    psi_plans,
    repeated_curve_system,
    segment_index,
    whole_plan_frozen,
)

RTOL = 1e-12

#: agreement of the moments with an exactly rounded sum, relative to the
#: sum of the magnitudes of their terms w * A * (s/T)^l
MOMENT_RTOL = 1e-13

SAMPLE_PROBLEM = (Path(__file__).resolve().parents[1]
                  / "bench" / "problems" / "sample_problem.yaml")


def _loop_residual(system, solution, t, panels=2000, t_max=None):
    """Residual at t by loops over band segments and their pieces.

    A segment's panels are split in proportion to its pieces.  Given
    ``t_max`` (the horizon, as the oracle takes it), every piece gets the
    oracle's equal share instead: ceil(panels / (k + 1)) for the
    solution's k breakpoints in (0, t_max).
    """
    if t_max is not None:
        k = len(solution.breakpoints_in(0.0, t_max))
        share = math.ceil(panels / (k + 1))
    segments = quadrature.decompose(t, system.curves)
    out = -np.array([float(f(t=t)) for f in system.rhs])
    for seg in segments:
        if seg.is_empty:
            continue
        comp = system.unknown_of_band[seg.band - 1]
        cuts = solution.breakpoints_in(seg.lo, seg.hi)
        pieces = quadrature.split_interval(seg.lo, seg.hi, cuts)
        for lo, hi in pieces:
            if t_max is not None:
                n_panels = share
            else:
                n_panels = max(1, int(round(panels * (hi - lo) / seg.length)))
            mids, width = quadrature.midpoints(lo, hi, n_panels)
            xvals = solution.component_values(comp, mids)
            for i in range(system.n_equations):
                kern = system.kernels[i][seg.band - 1]
                g = system.nonlinearities[i][seg.band - 1]
                kv = np.broadcast_to(np.asarray(kern(t=t, s=mids), float),
                                     mids.shape)
                gv = np.broadcast_to(np.asarray(g(s=mids, x=xvals), float),
                                     mids.shape)
                out[i] += float((kv * gv).sum() * width)
    return out


def _frozen(lin, i, j, t, s):
    system = lin.system
    x0v = lin.x0.component_values(lin.unknown_of_band[j - 1], s)
    kv = np.broadcast_to(np.asarray(
        system.kernels[i][j - 1](t=t, s=s), float), s.shape)
    gv = np.broadcast_to(np.asarray(
        system.g_x[i][j - 1](s=s, x=x0v), float), s.shape)
    return kv * gv


def _loop_pc_plans(lin, mesh, hp=4):
    """Per step k, per band: (component, segment, coeff, hist segs, hist weights).

    The unknown range and every history piece get ``hp`` panels each.
    """
    nodes = mesh.nodes
    n_eq = lin.n_equations
    plans = []
    for k in range(1, mesh.n_segments + 1):
        tk = float(nodes[k])
        band_plans = []
        for seg in quadrature.decompose(tk, lin.curves):
            j = seg.band
            a, b = seg.lo, seg.hi
            l = segment_index(mesh, b) if b > 0.0 else 1
            lo_unknown = max(float(nodes[l - 1]), a)
            coeff = np.zeros(n_eq)
            if b > lo_unknown:
                mids, width = quadrature.midpoints(lo_unknown, b, hp)
                for i in range(n_eq):
                    coeff[i] = _frozen(lin, i, j, tk, mids).sum() * width
            hist_hi = float(nodes[l - 1])
            segs, weights = [], np.empty((n_eq, 0))
            if hist_hi > a:
                pieces = quadrature.split_interval(
                    a, hist_hi, nodes[(nodes > a) & (nodes < hist_hi)])
                mids = np.concatenate(
                    [quadrature.midpoints(lo, hi, hp)[0] for lo, hi in pieces])
                widths = np.array([(hi - lo) / hp for lo, hi in pieces])
                segs = [segment_index(mesh, hi) for _, hi in pieces]
                weights = np.array([
                    _frozen(lin, i, j, tk, mids).reshape(len(pieces), hp)
                    .sum(axis=1) * widths for i in range(n_eq)])
            band_plans.append((lin.unknown_of_band[j - 1], l, coeff,
                               np.asarray(segs, dtype=int), weights))
        plans.append(band_plans)
    return plans


def _loop_psi_plan(lin, times, cuts=None, panels=8000, piece_panels=4):
    """Per band: starts, ends, abscissas, weights, kernels K, frozen slopes G'."""
    out = []
    for j in range(1, lin.n_bands + 1):
        starts, ends, absc, tvals, weights = [], [], [], [], []
        count = 0
        for t in times:
            seg = quadrature.decompose(float(t), lin.curves).segments[j - 1]
            starts.append(count)
            if not seg.is_empty:
                if cuts is None:
                    pieces, per_piece = [(seg.lo, seg.hi)], panels
                else:
                    pieces = quadrature.split_interval(seg.lo, seg.hi, cuts)
                    per_piece = piece_panels
                for lo, hi in pieces:
                    mids, width = quadrature.midpoints(lo, hi, per_piece)
                    absc.append(mids)
                    tvals.append(np.full(mids.size, float(t)))
                    weights.append(np.full(mids.size, width))
                    count += mids.size
            ends.append(count)
        s = np.concatenate(absc) if absc else np.empty(0)
        tv = np.concatenate(tvals) if tvals else np.empty(0)
        w = np.concatenate(weights) if weights else np.empty(0)
        x0v = lin.x0.component_values(lin.unknown_of_band[j - 1], s)
        system = lin.system
        kern = [np.broadcast_to(np.asarray(
            system.kernels[i][j - 1](t=tv, s=s), float), s.shape)
            for i in range(lin.n_equations)]
        slope = [np.broadcast_to(np.asarray(
            system.g_x[i][j - 1](s=s, x=x0v), float), s.shape)
            for i in range(lin.n_equations)]
        out.append((np.asarray(starts), np.asarray(ends), s, w, kern, slope))
    return out


def _loop_moments(lin, degree, panels=collocation.DEFAULT_MOMENT_PANELS):
    """Moment matrix and zeroth moments, node by node and band by band.

    Returns, for the matrix and for the zeroth moments, the exactly
    rounded sum of each entry (``math.fsum`` over its terms w * A *
    (s/T)^l) and the sum of the magnitudes of those terms.
    """
    m = degree
    nodes = collocation.collocation_nodes(lin.curves.horizon, m)
    scale = float(lin.curves.horizon)
    n_eq = lin.n_equations
    out = {"matrix": np.zeros((2, n_eq * m, n_eq * m)),
           "zeroth": np.zeros((2, n_eq, m, lin.n_bands))}
    for k in range(1, m + 1):
        tk = float(nodes[k - 1])
        # the terms of every entry of node k, over all its bands
        terms = {}
        for seg in quadrature.decompose(tk, lin.curves):
            if seg.is_empty:
                continue
            j = seg.band
            comp = lin.unknown_of_band[j - 1]
            mids, width = quadrature.midpoints(seg.lo, seg.hi, panels)
            scaled = mids / scale
            # K * dG/dx(x0) formed here for every pair, G = x included
            x0v = lin.x0.component_values(comp, mids)
            for i in range(1, n_eq + 1):
                vals = np.broadcast_to(np.asarray(
                    lin.system.kernels[i - 1][j - 1](t=tk, s=mids), float),
                    mids.shape) * lin.system.g_x[i - 1][j - 1](s=mids, x=x0v)
                terms["zeroth", (i - 1, k - 1, j - 1)] = [vals * width]
                row = collocation.flatten_index(i, k, m)
                power = scaled.copy()
                for l in range(1, m + 1):
                    col = collocation.flatten_index(comp, l, m)
                    terms.setdefault(("matrix", (row, col)), []).append(
                        vals * power * width)
                    if l < m:
                        power *= scaled
        for (name, entry), parts in terms.items():
            parts = np.concatenate(parts)
            out[name][(slice(None), *entry)] = (math.fsum(parts.tolist()),
                                                np.abs(parts).sum())
    return out["matrix"], out["zeroth"]


@pytest.fixture(scope="module")
def model01_pc(model01):
    # N = 16 on [0, 2]: t/2 lands exactly on a mesh node at every even step
    return solve_linear_pc(model01, n_segments=16)


def _scale(system, times):
    return 1.0 + np.max(np.abs(
        [np.asarray(f(t=np.asarray(times, float)), float) for f in system.rhs]))


def test_residual_matches_loop_for_scalar_and_array_times(model01, model01_pc,
                                                           sys1):
    # the loop splits a segment's panels in proportion to its pieces, the
    # oracle gives every piece the same share; with kernels linear in s and
    # a pc solution the midpoint rule is exact on a piece, and the two
    # agree.  sys1's K = s * (t + s) is curved in s, so its case is looped
    # with the oracle's share and pins the panel count per piece.  The
    # sample problem is the input of the cli-residual benchmark
    sample = load_problem(SAMPLE_PROBLEM)
    cases = [(model01, model01_pc, 16, False),
             (model01, model01.exact_iterate(), 16, False),
             *[(sample, solve_linear_pc(sample, n_segments=n), n, False)
               for n in (32, 128)],
             (sys1, solve_linear_pc(sys1, n_segments=16), 16, True)]
    for system, solution, n_segments, equal_share in cases:
        horizon = system.curves.horizon
        times = np.concatenate((
            [0.0], Mesh.uniform(horizon, n_segments).nodes[1:],
            np.linspace(0.015 * horizon, 0.985 * horizon, 9)))

        def loop(ts):
            return np.array([_loop_residual(
                system, solution, float(t),
                t_max=horizon if equal_share else None) for t in ts]).T

        batch = band_quadrature_residual(system, solution, times)
        assert batch.shape == (2, times.size)
        tol = RTOL * _scale(system, times)
        assert np.max(np.abs(batch - loop(times))) <= tol
        for r in range(0, times.size, 5):
            # the panel share comes from the horizon, so a single time
            # reads what its column of the batch reads
            single = band_quadrature_residual(system, solution,
                                              float(times[r]))
            assert single.shape == (2,)
            assert np.array_equal(single, batch[:, r])


def test_residual_with_zero_length_band():
    system = repeated_curve_system()
    times = np.linspace(0.0, 1.0, 11)
    for solution in (system.guess_iterate(),
                     solve_linear_pc(system, n_segments=8)):
        ref = np.array([_loop_residual(system, solution, float(t), panels=300)
                        for t in times]).T
        got = band_quadrature_residual(system, solution, times, panels=300)
        assert np.max(np.abs(got - ref)) <= RTOL * _scale(system, times)


@pytest.mark.parametrize("panels", [2.5, -5, 0, True, np.float64(2000)])
def test_residual_rejects_unusable_panel_counts(model01, panels):
    # unchecked, 2.5 would lay 3 panels of width (hi - lo) / 2.5, -5 return
    # -f and 0 nan
    with pytest.raises(ValueError, match="panels"):
        band_quadrature_residual(model01, model01.exact_iterate(), 1.0,
                                 panels=panels)


@pytest.mark.parametrize("name, n", [("model01", 16), ("model02", 12),
                                     ("nonlinear-scalar", 10), ("repeated", 8)])
def test_pc_assembly_matches_loop(name, n):
    """Each step's merged terms are the loop's band terms, inverse applied.

    Step values sit at u * n + l in the flat buffer (0-based component u
    and segment l).  Per step, the loop's band terms give the step matrix
    (bands on their component's highest segment) and a dense (n_eq,
    n_comp * n) matrix of the known step values read (the known segment
    of every other band with a nonzero coefficient, and the history
    pieces); the step's weights, summed per flat position, must be the
    rows of inverse times that matrix that the step writes.
    """
    system = repeated_curve_system() if name == "repeated" else builtin(name)
    lin = linearize(system)
    mesh = Mesh.uniform(system.curves.horizon, n)
    got = PCDiscretization(lin, mesh)._steps
    ref = _loop_pc_plans(lin, mesh)
    assert len(got.out) == len(got.inverse) == len(got.terms) == len(ref) == n
    width = lin.n_components * n
    for k, ((idx, weights), step_ref) in enumerate(zip(got.terms, ref)):
        assert len(step_ref) == system.n_bands
        # the highest segment per component is the step's unknown
        active = {}
        for comp, seg, *_ in step_ref:
            active[comp] = max(active.get(comp, 0), seg)
        np.testing.assert_array_equal(
            got.out[k], [(c - 1) * n + s - 1 for c, s in active.items()])
        mat = np.zeros((lin.n_equations, lin.n_components))
        reads = np.zeros((lin.n_equations, width))
        for comp, seg, ref_coeff, hist_segs, hist_w in step_ref:
            base = (comp - 1) * n
            if seg == active[comp]:
                mat[:, comp - 1] += ref_coeff
            elif np.any(ref_coeff != 0.0):
                reads[:, base + seg - 1] += ref_coeff
            np.add.at(reads.T, base + hist_segs - 1, hist_w.T)
        rows = np.array(list(active)) - 1
        inverse = np.linalg.inv(mat)[rows]
        # the step inverse is the inverse of the reference step matrix
        assert np.max(np.abs(got.inverse[k] @ mat - np.eye(len(mat))[rows])) \
            <= RTOL * (1.0 + np.abs(got.inverse[k]).max() * np.abs(mat).max())
        assert weights.shape == (rows.size, idx.size)
        dense = np.zeros((rows.size, width))
        np.add.at(dense.T, idx, weights.T)
        expected = inverse @ reads
        tol = RTOL * (1.0 + np.abs(inverse).sum(axis=1).max()
                      * np.abs(reads).sum(axis=1).max())
        assert np.max(np.abs(dense - expected), initial=0.0) <= tol
        # the solve reads views of the merged arrays, no copies
        assert idx.base is not None and weights.base is not None


#: (0-based band, 0-based equations whose G is not x) per psi test system
ACTIVE_PAIRS = {"model01": [], "model02": [], "nonlinear-scalar": [(0, [0])],
                "repeated": [(2, [0])]}


def _assert_psi_band_is_the_loop(lin, times, band, plan, ref, pieces):
    """The solver's psi ``band``, on its ``plan`` built again
    (:func:`psi_plans`), holds the loop's plan and K, or the row sums of
    K where it keeps only those, and the whole-plan A is the loop's K * G'
    bit for bit; ``pieces`` per time the loop's count."""
    starts, ends, s, w, kern, slope = ref
    panels = plan.panels
    np.testing.assert_array_equal(
        plan.piece_time, np.repeat(np.arange(starts.size), pieces))
    np.testing.assert_array_equal(plan.piece_width, w[::panels])
    assert band.piece_width.tobytes() == plan.piece_width.tobytes()
    np.testing.assert_array_equal(plan.abscissas.ravel(), s)
    kvs, avs = whole_plan_frozen(lin, plan, times)
    for q, (i, kernel) in enumerate(zip(band.equations, band.kernels)):
        if kernel is not None:
            assert kernel.shape == (pieces.sum(), panels)
            np.testing.assert_array_equal(kernel.ravel(), kern[i])
        if band.weights is not None and band.weights[q] is not None:
            # a pc band keeps the row sums of K of a G free of s
            assert band.weights[q].tobytes() \
                == kvs[i].sum(axis=1).tobytes()
        np.testing.assert_array_equal(kvs[i].ravel(), kern[i])
        np.testing.assert_array_equal(avs[i].ravel(), kern[i] * slope[i])


@pytest.mark.parametrize("name", ["model02", "nonlinear-scalar", "repeated"])
def test_psi_plan_without_cuts_is_bit_identical(name):
    # collocation sums psi on the plan of its moments
    system = repeated_curve_system() if name == "repeated" else builtin(name)
    lin = linearize(system)
    disc = collocation.CollocationDiscretization(lin, 6, panels=500)
    ref = _loop_psi_plan(lin, disc.times, panels=500)
    # psi keeps the pairs whose G is not x, and only those
    assert [(band.band, band.equations) for band in disc._psi] \
        == ACTIVE_PAIRS[name]
    for band, plan in zip(disc._psi, psi_plans(disc)):
        starts, ends = ref[band.band][:2]
        # one piece per time with a non-empty segment
        _assert_psi_band_is_the_loop(lin, disc.times, band, plan,
                                     ref[band.band], (ends > starts) * 1)
    # the pass summed psi at the guess on those plans
    assert disc.psi_at_guess.tobytes() == guess_reference(disc).tobytes()


def test_psi_plan_with_mesh_cuts_matches_loop(model01, scalar):
    # model01 is all G = x and plans nothing; nonlinear-scalar keeps band 1
    for name, system in (("model01", model01), ("nonlinear-scalar", scalar)):
        lin = linearize(system)
        mesh = Mesh.uniform(system.curves.horizon, 16)
        # pc sums psi on the plan of its steps
        disc = PCDiscretization(lin, mesh)
        ref = _loop_psi_plan(lin, mesh.nodes[1:], cuts=mesh.nodes[1:-1])
        assert [(band.band, band.equations)
                for band in disc._psi] == ACTIVE_PAIRS[name]
        for band, plan in zip(disc._psi, psi_plans(disc)):
            starts, ends = ref[band.band][:2]
            # a time owns one 4-panel piece per mesh segment it crosses
            pieces = (ends - starts) // 4
            assert np.array_equal(pieces * 4, ends - starts)
            _assert_psi_band_is_the_loop(lin, disc.times, band, plan,
                                         ref[band.band], pieces)
        assert disc.psi_at_guess.tobytes() == guess_reference(disc).tobytes()


@pytest.mark.parametrize("name", ["nonlinear-scalar", "nonlinear-sys2"])
@pytest.mark.parametrize("n", [16, 64])
def test_pc_history_weights_are_rows_of_the_handed_over_plan(name, n):
    # the step coefficients, the history weights and psi read one 4-panel
    # plan of every piece; its last piece per time, the unknown range,
    # gives the coefficients and carries no history
    lin = linearize(builtin(name))
    disc = PCDiscretization(lin, Mesh.uniform(lin.curves.horizon, n))
    bands = disc._assemble()[0]
    assert [band.band + 1 for band in disc._psi] == [
        j for j in range(1, lin.n_bands + 1) if lin.nonlinear_equations[j - 1]]
    for band, plan in zip(disc._psi, psi_plans(disc)):
        _, _, coeff, hist, size, weights = bands[plan.band - 1]
        # a step iterate is one value per piece: psi's R is A's row sums
        assert not hasattr(band, "shift")
        assert all(moments.shape == (plan.piece_time.size, 1)
                   for moments in band.moments)
        history = np.diff(plan.piece_time, append=-1) == 0
        last = plan.piece_time[~history]
        assert not np.any(coeff[np.setdiff1d(np.arange(n), last)])
        assert plan.abscissas.shape == (plan.piece_time.size, PIECE_PANELS)
        assert np.array_equal(hist, band.segment[history])
        assert np.array_equal(size, np.bincount(plan.piece_time[history],
                                                minlength=n))
        assert band.equations == list(lin.nonlinear_equations[plan.band - 1])
        assert len(band.kernels) == len(band.weights) == len(band.equations)
        # A is not kept: the weights are those of the whole-plan A
        avs = whole_plan_frozen(lin, plan, disc.times)[1]
        for i in band.equations:
            expected = avs[i].sum(axis=1) * plan.piece_width
            assert weights[i].tobytes() == expected[history].tobytes()
            assert coeff[last, i].tobytes() == expected[~history].tobytes()


def _moment_case(name):
    if name == "sample-problem":
        return load_problem(SAMPLE_PROBLEM)
    if name == "empty-band":
        return empty_band_system()
    return builtin(name)


@pytest.mark.parametrize("name, degree", [
    *[("model02", m) for m in range(2, 13)],
    *[("nonlinear-sys2", m) for m in range(2, 13)],
    ("sample-problem", 4), ("sample-problem", 8),
    ("nonlinear-scalar", 5), ("nonlinear-scalar", 9),
    ("empty-band", 3)])
def test_moments_from_the_plan_are_bit_identical(name, degree, monkeypatch):
    # model02 at m = 11, 12 fails the pivot check after the moments are
    # taken; the moments are compared without factorizing
    monkeypatch.setattr(collocation, "LUFactorization", lambda matrix: None)
    lin = linearize(_moment_case(name))
    disc = collocation.CollocationDiscretization(lin, degree)
    matrix, zeroth = _loop_moments(lin, degree)
    for got, (exact, scale) in ((disc.matrix, matrix),
                                (disc.zeroth_moments, zeroth)):
        assert np.all(np.abs(got - exact) <= MOMENT_RTOL * scale)
    # a second build gives the same bits: nothing is carried between runs
    again = collocation.CollocationDiscretization(lin, degree)
    assert np.array_equal(again.matrix, disc.matrix)
    assert np.array_equal(again.zeroth_moments, disc.zeroth_moments)
    # psi sums on the plan the moments came from, of every band with a
    # pair whose G is not x and a segment that is not empty
    edges = quadrature.band_edges(disc.times, lin.curves)
    assert [band.band for band in disc._psi] == [
        j for j, equations in enumerate(lin.nonlinear_equations)
        if equations and np.any(edges[:, j + 1] > edges[:, j])]
    assert all(plan.panels == disc.panels for plan in psi_plans(disc))


def test_band_pieces_drop_zero_length_pieces_like_split_interval():
    curves = CurveFamily(1.0, ("t/2",))
    times = np.array([0.0, 0.3, 0.8, 1.0])
    cuts = np.array([0.25, 0.25, 0.4, 0.5, 0.9])   # a repeated cut
    pieces = quadrature.band_pieces(quadrature.band_edges(times, curves), cuts)
    for band in pieces:
        ref = []
        for r, t in enumerate(times):
            seg = quadrature.decompose(t, curves).segments[band.band - 1]
            ref += [(r, lo, hi)
                    for lo, hi in quadrature.split_interval(seg.lo, seg.hi, cuts)]
        got = list(zip(band.time_index, band.lo, band.hi))
        assert got == ref


def test_ordering_error_names_the_first_offending_time():
    # 2 t^2 stays below t until t = 1/2 and crosses it after
    curves = CurveFamily(1.0, ("2*t^2",))
    times = np.array([0.25, 0.5, 0.75, 1.0])
    with pytest.raises(CurveOrderingError, match=r"at t = 0\.75"):
        quadrature.band_edges(times, curves)
    system = VolterraSystem(curves=curves, kernels=[["1", "1"]],
                            nonlinearities=[["x", "x"]], rhs=["t"],
                            unknown_of_band=(1, 1))
    with pytest.raises(CurveOrderingError, match=r"curve 2 is below curve 1 "
                                                 r"at t = 0\.75"):
        band_quadrature_residual(system, system.guess_iterate(), times)


@pytest.mark.parametrize("method, size", [("pc", 8), ("collocation", 3)])
def test_a_curve_that_is_not_finite_is_refused_where_the_bands_are_cut(
        method, size):
    # nan fails every ordering test: the first time it is met is named
    system = nan_curve_system()
    key = "degree" if method == "collocation" else "n_segments"
    first = {"pc": r"0\.625", "collocation": r"0\.6666"}[method]
    with pytest.raises(CurveOrderingError,
                       match=rf"curve 1 is nan at t = {first}"):
        iterate(system, method=method, skip_validation=True, **{key: size})
    with pytest.raises(CurveOrderingError,
                       match=r"curve 1 is nan at t = 0\.75$"):
        band_quadrature_residual(system, system.guess_iterate(),
                                 np.array([0.25, 0.75, 1.0]))
