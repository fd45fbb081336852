"""Each solver's psi and the Horner iterates against the loops they replace.

Every plan, a collocation plan or the pc plan cut at mesh nodes, sums w *
(sum A * xm - sum K * G(xm)) per piece, in the solver that built it
(``add_psi``), and :class:`~bandvie.newton.PsiEvaluator` adds f.  Psi at
the linearization point is summed on the plan, piece by piece into f, by
the solver's set-up pass, which keeps it read-only; ``add_psi`` refuses
the linearization point.  A solver iterate (a polynomial on a
collocation plan, steps on the mesh of a pc plan) gives per piece its
coefficients D_k in the plan's reference powers, and its linear term is
D_k . R_k with R = A @ table.T; its G term is W_k . G(D_k(v)), G at the n
Chebyshev points v_j and W the weights of K, for a pair whose G(xm) is a
polynomial of degree n - 1; the pieces of a time are summed before f is
added.  pc keeps the weights of K from its set-up, collocation builds
them at its first iterate, and neither keeps the plan, only the
abscissas a G summed on it needs, so the references read the plan built
again, with K and A on it (:func:`_kept`).  ``_per_node_values`` is that
formula one piece at a time and must match bit for bit, given the
solver's own moments and weights; ``_cumsum_values_without_cuts`` is the
prefix-sum loop the plans without cuts used before, and ``_fsum_values``
an exactly rounded sum of the terms per abscissa with the iterate
evaluated by ``polyval`` or its own ``component_values``.  Both must
agree to ``SUM_RTOL`` of the sum of the magnitudes of the terms plus
|f|: w * A * xm and w * K * G(xm) per abscissa.
"""

import gc
import math
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from bandvie import collocation, quadrature
from bandvie.collocation import DEFAULT_MOMENT_PANELS, PolynomialSolution
from bandvie.errors import SolverError
from bandvie.expr import Expression, polynomial_degree
from bandvie.newton import PsiEvaluator
from bandvie.newton import iterate as run_newton
from bandvie.pc import (
    PIECE_PANELS,
    Mesh,
    PCDiscretization,
    PiecewiseConstantSolution,
    solve_linear_pc,
)
from bandvie.problem import (
    BLOCK_VALUES,
    CurveFamily,
    LinearizedSystem,
    VolterraSystem,
    linearize,
)
from bandvie.registry import builtin

from helpers import (
    CollocationPsi,
    empty_band_system,
    frozen_values,
    guess_reference,
    pc_psi_evaluator,
    psi_plans,
    whole_plan_frozen,
)

#: agreement of the psi sums with the other summation orders, relative to
#: the sum of the magnitudes of their terms plus |f|
SUM_RTOL = 1e-13

BUILTINS = ("model01", "model02", "nonlinear-scalar", "nonlinear-sys1",
            "nonlinear-sys2")


def _s_dependent_system():
    """The kernels of nonlinear-sys2 with two nonlinearities that use s."""
    return VolterraSystem(
        curves=CurveFamily(1.0, ("t/2",)),
        kernels=[["s*(t+s)", "1"], ["1+t-s", "-1"]],
        nonlinearities=[["x^2+s*x", "3*x+x^3"], ["x-x^2", "x+s*x^4"]],
        rhs=["t", "t^2"], guess=["0.9*cos(t)", "0.9*sin(t)"])


def _constant_g_system():
    """Kernels like nonlinear-sys2's with a G constant in x: a polynomial
    of degree 0, taken at one point for every iterate."""
    return VolterraSystem(
        curves=CurveFamily(1.0, ("t/2",)),
        kernels=[["1+s*(t+s)", "1"], ["1+t-s", "-1"]],
        nonlinearities=[["x^2", "2"], ["x-x^2", "x"]],
        rhs=["t", "t^2"], guess=["0.9*cos(t)", "0.9*sin(t)"])


def _system(name):
    if name == "empty-band":
        return empty_band_system()
    if name == "s-dependent":
        return _s_dependent_system()
    if name == "constant-g":
        return _constant_g_system()
    return builtin(name)


def _iterate_values(lin, iterate, j, s):
    comp = lin.unknown_of_band[j]
    if isinstance(iterate, PolynomialSolution):
        return polyval(s, iterate.coefficients[comp - 1])
    return np.asarray(iterate.component_values(comp, s), dtype=float)


def _g_values(system, i, j, s, xm):
    return np.broadcast_to(np.asarray(
        system.nonlinearities[i][j](s=s, x=xm), float), s.shape)


def _pieces(band):
    """(outer-time index, panel width, abscissa slice) per piece of a band."""
    panels = band.panels
    return [(r, w, slice(p * panels, (p + 1) * panels))
            for p, (r, w) in enumerate(zip(band.piece_time, band.piece_width))]


def _chebyshev_nodes(n, degree):
    """V[r, j] = v_j^r, r <= ``degree``, for the n Chebyshev points v_j =
    (1 + cos(pi (j + 1/2) / n)) / 2 of [0, 1]."""
    v = (1.0 + np.cos(np.pi * (np.arange(n) + 0.5) / n)) / 2.0
    return np.power.outer(v, np.arange(degree + 1)).T


def _kept(disc):
    """Per band the solver's psi keeps, in its order, its plan built again
    (:func:`psi_plans`) with K and A of each pair formed on the whole plan
    (:func:`whole_plan_frozen`): the solver keeps no plan and no A, and of
    K only what its iterates need, so the references read these."""
    out = []
    for band, plan in zip(disc._psi, psi_plans(disc)):
        kvs, avs = whole_plan_frozen(disc.lin, plan, disc.times)
        out.append(SimpleNamespace(
            band=band.band, component=band.component,
            panels=plan.panels, piece_time=plan.piece_time,
            piece_width=plan.piece_width,
            abscissas=plan.abscissas.reshape(-1),
            segment=getattr(band, "segment", None),
            shift=getattr(band, "shift", None),
            pairs=[(i, avs[i], kvs[i]) for i in band.equations]))
    return out


def _coefficients_per_piece(lin, plan, iterate):
    """Per band the solver iterate's coefficients D_k on every piece."""
    if isinstance(iterate, PiecewiseConstantSolution):
        return [iterate.values[band.component - 1][band.segment, None]
                for band in plan]
    scale = float(lin.curves.horizon)
    scaled = iterate.coefficients * scale ** np.arange(iterate.degree + 1)
    return [scaled[band.component - 1] @ band.shift for band in plan]


def _per_node_values(ev, plan, iterate):
    lin = ev.lin
    out = ev.disc.f.copy()
    on_plan = iterate is lin.x0
    if not on_plan:
        coefficients = _coefficients_per_piece(lin, plan, iterate)
    for b, band in enumerate(plan):
        j, s = band.band, band.abscissas
        if on_plan:
            xm = _iterate_values(lin, iterate, j, s)
        else:
            d = coefficients[b]
            table = quadrature.reference_powers(band.panels, d.shape[1] - 1)
            xm = np.matmul(d, table).reshape(-1)
        for q, (i, frozen, kernel) in enumerate(band.pairs):
            g = lin.system.nonlinearities[i][j]
            gm = _g_values(lin.system, i, j, s, xm)
            if on_plan:
                for p, (r, w, cut) in enumerate(_pieces(band)):
                    linear = np.einsum("p,p->", frozen[p], xm[cut])
                    nonlinear = np.einsum("p,p->", kernel[p], gm[cut])
                    out[i, r] += w * (linear - nonlinear)
                continue
            moments = ev.disc._psi[b].moments[q]
            weights = ev.disc._psi[b].weights[q]
            if weights is not None and weights.ndim == 1:
                # a step iterate: G at its values, times the row sums of K
                x = np.broadcast_to(g(x=d[:, 0]), weights.shape)
            elif weights is not None:
                # the iterate at the n Chebyshev points, one product per
                # band as psi forms it
                x = d @ _chebyshev_nodes(weights.shape[1], d.shape[1] - 1)
            by_time = {}
            for p, (r, w, cut) in enumerate(_pieces(band)):
                linear = np.einsum("r,r->", d[p], moments[p])
                if weights is None:
                    # summed on the plan
                    nonlinear = np.einsum("p,p->", kernel[p], gm[cut])
                elif weights.ndim == 1:
                    nonlinear = x[p] * weights[p]
                else:
                    # the weights of K dotted with G at the points
                    nonlinear = (weights[p] * g(x=x[p])).sum()
                by_time.setdefault(r, []).append(w * (linear - nonlinear))
            for r, rows in by_time.items():
                # one segment of a reduceat: rows[0] + the pairwise sum of
                # the rest
                out[i, r] += np.add.reduceat(rows, [0])[0]
    return out


def _terms(ev, plan, iterate):
    """Per (equation, time): the list of terms w * A * xm, -w * K * G(xm)."""
    lin = ev.lin
    terms = [[[] for _ in ev.disc.times] for _ in range(lin.n_equations)]
    for band in plan:
        j, s = band.band, band.abscissas
        xm = _iterate_values(lin, iterate, j, s)
        for i, frozen, kernel in band.pairs:
            gm = _g_values(lin.system, i, j, s, xm)
            for p, (r, w, cut) in enumerate(_pieces(band)):
                terms[i][r] += list(w * frozen[p] * xm[cut])
                terms[i][r] += list(-w * kernel[p] * gm[cut])
    return terms


def _fsum_values(ev, plan, iterate):
    """Exactly rounded f + sum of the terms, and the tolerance scale."""
    terms = _terms(ev, plan, iterate)
    f = ev.disc.f
    exact = np.array([[math.fsum([f[i, r]] + terms[i][r])
                       for r in range(f.shape[1])] for i in range(f.shape[0])])
    scale = np.array([[math.fsum(map(abs, terms[i][r])) + abs(f[i, r])
                       for r in range(f.shape[1])] for i in range(f.shape[0])])
    return exact, scale


def _cumsum_values_without_cuts(ev, plan, iterate):
    """The prefix-sum loop on K * w and dG/dx(x0), re-evaluated on the plan."""
    lin = ev.lin
    out = ev.disc.f.copy()
    for band in plan:
        j, s = band.band, band.abscissas
        panels = s.size // band.piece_time.size
        time_index = np.repeat(band.piece_time, panels)
        kvs, gvs, _ = frozen_values(lin, j + 1, ev.disc.times[time_index],
                                    s)
        weights = np.repeat(band.piece_width, panels)
        ends = np.cumsum(np.bincount(time_index,
                                     minlength=ev.disc.times.size))
        starts = np.concatenate(([0], ends[:-1]))
        xm = _iterate_values(lin, iterate, j, s)
        for i, *_ in band.pairs:
            gm = _g_values(lin.system, i, j, s, xm)
            contrib = kvs[i] * weights * (gvs[i] * xm - gm)
            csum = np.concatenate(([0.0], np.cumsum(contrib)))
            out[i] += csum[ends] - csum[starts]
    return out


def _assert_sums_agree(got, ref, scale):
    assert np.all(np.abs(got - ref) <= SUM_RTOL * scale)


def _polynomial(system, seed, degree=6):
    """A polynomial iterate near the guess: small random coefficients."""
    rng = np.random.default_rng(seed)
    coeffs = 0.3 * rng.standard_normal((system.n_components, degree + 1))
    return PolynomialSolution(coeffs, system.component_domains())


def _steps(system, mesh, seed):
    """A step iterate on ``mesh``: random start and segment values."""
    rng = np.random.default_rng(seed)
    n = system.n_components
    return PiecewiseConstantSolution(
        mesh, rng.uniform(-1.0, 1.0, n),
        rng.uniform(-1.5, 1.5, (n, mesh.n_segments)),
        system.component_domains())


class _Counting:
    """An iterate wrapper that records the components it is evaluated for."""

    def __init__(self, iterate):
        self._it = iterate
        self.components = []

    def component_values(self, i, ts):
        self.components.append(i)
        return self._it.component_values(i, ts)


@pytest.mark.parametrize("degree", range(16))
def test_horner_matches_polyval_bit_for_bit(degree):
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal((2, degree + 1))
    coeffs[1, -1] = -0.0            # a signed zero on top, as polyval keeps it
    sol = PolynomialSolution(coeffs, (1.0, 1.0))
    ts = np.concatenate(([0.0, -0.0, 1.0], rng.uniform(-3.0, 3.0, 200)))
    for i in (1, 2):
        got = sol.component_values(i, ts)
        ref = polyval(ts, coeffs[i - 1])
        assert np.array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()
        for t in (0.0, 0.7, -2.5):
            got = sol.component_values(i, t)
            ref = polyval(np.asarray(t), coeffs[i - 1])
            assert np.array_equal(got, ref)
            assert np.ndim(got) == 0
            assert float(got) == float(ref)


def test_sys2_collocation_nodes_bit_identical(sys2):
    lin = linearize(sys2)
    ev, plan = _collocation_evaluator(lin, 6)
    for iterate in (lin.x0, _polynomial(sys2, 1)):
        got = ev.values(iterate)
        assert np.array_equal(got, _per_node_values(ev, plan, iterate))
        _, scale = _fsum_values(ev, plan, iterate)
        _assert_sums_agree(
            got, _cumsum_values_without_cuts(ev, plan, iterate), scale)


def _collocation_disc(lin, degree, panels=DEFAULT_MOMENT_PANELS):
    """A collocation discretization of ``degree`` on moment plans of
    ``panels`` panels, used for its psi."""
    # only its psi is needed here, so the moment system is not factorized
    with mock.patch.object(collocation, "LUFactorization",
                           lambda matrix: None):
        return collocation.CollocationDiscretization(lin, degree,
                                                     panels=panels)


def _collocation_evaluator(lin, degree, panels=DEFAULT_MOMENT_PANELS):
    """A psi evaluator of that discretization, and its plan
    (:func:`_kept`)."""
    disc = _collocation_disc(lin, degree, panels)
    return PsiEvaluator(lin, disc), _kept(disc)


@pytest.mark.parametrize("name", ["nonlinear-sys2", "s-dependent",
                                  "empty-band"])
@pytest.mark.parametrize("degree,panels", [(1, 300), (4, 1001)])
def test_collocation_hand_off_helper_is_the_discretizations(
        name, degree, panels):
    # the helper's psi, at any times, is the discretization's at its nodes
    lin = linearize(_system(name))
    disc = _collocation_disc(lin, degree, panels)
    helper = CollocationPsi(lin, disc.times, degree, panels)
    assert len(helper._psi) == len(disc._psi)
    for got, want in zip(helper._psi, disc._psi):
        assert (got.band, got.component) == (want.band, want.component)
        assert got.equations == want.equations
        assert got.points == want.points
        for field in ("piece_width", "shift", "times"):
            assert getattr(got, field).tobytes() \
                == getattr(want, field).tobytes()
        assert (got.abscissas is None) == (want.abscissas is None)
        if got.abscissas is not None:
            assert got.abscissas.tobytes() == want.abscissas.tobytes()
        for field in ("kernels", "moments"):
            assert [a.tobytes() for a in getattr(got, field)] \
                == [a.tobytes() for a in getattr(want, field)]
    for field in ("f", "psi_at_guess"):
        assert getattr(helper, field).tobytes() \
            == getattr(disc, field).tobytes()


def _node_evaluator(name, nodes, panels=DEFAULT_MOMENT_PANELS, degree=None):
    """A new psi evaluator on the collocation plan of a test system at
    ``nodes`` nodes, for iterates of ``degree`` (default: the node count,
    the discretization's own; else the helper's, pinned to it by
    test_collocation_hand_off_helper_is_the_discretizations), and the
    plan (:func:`_kept`)."""
    lin = linearize(_system(name))
    if degree is None or degree == nodes:
        disc = _collocation_disc(lin, nodes, panels)
    else:
        disc = CollocationPsi(
            lin, collocation.collocation_nodes(lin.curves.horizon, nodes),
            degree, panels)
    return PsiEvaluator(lin, disc), _kept(disc)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["nonlinear-sys2", "nonlinear-scalar",
                             "empty-band", "s-dependent"]),
       degree=st.integers(1, 15), seed=st.integers(0, 2**32 - 1),
       nodes=st.sampled_from([1, 3, 7]),
       panels=st.sampled_from([DEFAULT_MOMENT_PANELS, 300, 1001]))
# polynomial iterates of degree below, at and above the node count
@example(name="nonlinear-sys2", degree=2, seed=1, nodes=7,
         panels=DEFAULT_MOMENT_PANELS)
@example(name="nonlinear-sys2", degree=7, seed=2, nodes=7,
         panels=DEFAULT_MOMENT_PANELS)
@example(name="nonlinear-sys2", degree=12, seed=3, nodes=7,
         panels=DEFAULT_MOMENT_PANELS)
# G(xm) of degree up to 4 * 15 from the weights of K
@example(name="nonlinear-sys2", degree=15, seed=11, nodes=7,
         panels=DEFAULT_MOMENT_PANELS)
@example(name="nonlinear-scalar", degree=14, seed=12, nodes=3, panels=300)
@example(name="nonlinear-scalar", degree=1, seed=4, nodes=1,
         panels=DEFAULT_MOMENT_PANELS)
@example(name="nonlinear-scalar", degree=12, seed=5, nodes=3,
         panels=DEFAULT_MOMENT_PANELS)
@example(name="empty-band", degree=3, seed=6, nodes=3,
         panels=DEFAULT_MOMENT_PANELS)
@example(name="empty-band", degree=12, seed=7, nodes=1,
         panels=DEFAULT_MOMENT_PANELS)
# a moment plan of another panel count, at the ends of the degree range
@example(name="nonlinear-sys2", degree=1, seed=8, nodes=7, panels=300)
@example(name="nonlinear-sys2", degree=12, seed=9, nodes=7, panels=1001)
@example(name="s-dependent", degree=12, seed=10, nodes=3, panels=300)
def test_no_cut_psi_agrees_with_an_exactly_rounded_sum(name, degree, seed,
                                                       nodes, panels):
    # the linear term comes from the moments R = A @ table.T, and for a
    # polynomial G the nonlinear one from the weights of K at g * d + 1
    # Chebyshev points; R is kept at the degree of the iterates, so every
    # degree has a psi of its own
    ev, plan = _node_evaluator(name, nodes, panels, degree)
    system = ev.lin.system
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, (system.n_components, degree + 1))
    iterate = PolynomialSolution(coeffs, system.component_domains())
    exact, scale = _fsum_values(ev, plan, iterate)
    _assert_sums_agree(ev.values(iterate), exact, scale)


def _cut_evaluator(name, n_segments):
    """A new psi evaluator of a pc discretization of a uniform mesh, its
    plan (:func:`_kept`), and the mesh."""
    lin = linearize(_system(name))
    mesh = Mesh.uniform(lin.curves.horizon, n_segments)
    disc = PCDiscretization(lin, mesh)
    return PsiEvaluator(lin, disc), _kept(disc), mesh


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["nonlinear-sys1", "nonlinear-sys2",
                             "nonlinear-scalar", "s-dependent"]),
       n_segments=st.sampled_from([2, 7, 16, 33]),
       seed=st.integers(0, 2**32 - 1))
@example(name="nonlinear-sys2", n_segments=33, seed=1)
@example(name="s-dependent", n_segments=16, seed=2)
def test_step_iterate_psi_agrees_with_an_exactly_rounded_sum(name, n_segments,
                                                             seed):
    # a step iterate is one coefficient per piece, gathered by the piece's
    # mesh segment; the reference locates every abscissa instead
    ev, plan, mesh = _cut_evaluator(name, n_segments)
    iterate = _steps(ev.lin.system, mesh, seed)
    exact, scale = _fsum_values(ev, plan, iterate)
    _assert_sums_agree(ev.values(iterate), exact, scale)


@pytest.mark.parametrize("name", [*BUILTINS, "s-dependent", "constant-g"])
@pytest.mark.parametrize("cut", [False, True])
def test_every_iterate_is_bit_identical_to_the_per_node_loop(name, cut):
    system = _system(name)
    if cut:
        ev, plan, mesh = _cut_evaluator(name, 16)
        iterates = [ev.lin.x0, solve_linear_pc(system, n_segments=16),
                    _steps(system, mesh, 1)]
    else:
        ev, plan = _node_evaluator(name, 5, 700, degree=6)
        iterates = [ev.lin.x0, _polynomial(system, 1),
                    _polynomial(system, 2)]
    for iterate in iterates:
        assert np.array_equal(ev.values(iterate),
                              _per_node_values(ev, plan, iterate))


def test_scalar_with_mesh_cuts_bit_identical_and_skips_band_2(scalar):
    counting = _Counting(scalar.guess_iterate())
    lin = linearize(scalar, counting)
    disc = PCDiscretization(lin, Mesh.uniform(scalar.curves.horizon, 16))
    # band 2 has G = x: the linearization point is evaluated, and summed,
    # for band 1 only, in the pass that forms the frozen kernel, and psi
    # evaluates it nowhere
    assert counting.components == [1]
    ev = PsiEvaluator(lin, disc)
    assert counting.components == [1]
    plan = _kept(disc)
    for iterate in (lin.x0, solve_linear_pc(scalar, n_segments=16)):
        assert np.array_equal(ev.values(iterate),
                              _per_node_values(ev, plan, iterate))


@pytest.mark.parametrize("n_segments", [64, 256])
def test_mesh_cut_psi_agrees_with_an_exactly_rounded_sum(sys2, n_segments):
    # a prefix sum over the whole band, differenced per time, missed by
    # 1.8e-12 of the scale at N = 256 on this iterate
    lin = linearize(sys2)
    disc = PCDiscretization(lin, Mesh.uniform(sys2.curves.horizon,
                                              n_segments))
    ev = PsiEvaluator(lin, disc)
    plan = _kept(disc)
    pc_iterate, _ = run_newton(sys2, method="pc", n_segments=n_segments,
                               max_iters=3)
    exact, scale = _fsum_values(ev, plan, pc_iterate)
    _assert_sums_agree(ev.values(pc_iterate), exact, scale)


#: agreement of psi on the iterates of a real run, whose coefficients reach
#: 1.9e7 at m = 12, with an exactly rounded sum, relative to the same scale
REAL_ITERATE_RTOL = 1e-12


@pytest.mark.parametrize("degree", [10, 12])
def test_psi_of_real_sys2_iterates_agrees_with_an_exactly_rounded_sum(
        sys2, degree):
    # G(D) formed from the powers D^n missed this sum by 5.3e-11 of the
    # scale at m = 10 and by 1.4e-8 at m = 12, on the third iterate
    iterate, _ = run_newton(sys2, method="collocation", degree=degree,
                            max_iters=3)
    ev, plan = _collocation_evaluator(linearize(sys2), degree)
    exact, scale = _fsum_values(ev, plan, iterate)
    assert np.all(np.abs(ev.values(iterate) - exact)
                  <= REAL_ITERATE_RTOL * scale)


def test_model02_psi_is_f_and_never_evaluates_the_iterate(model02):
    lin = linearize(model02)
    ev, plan = _collocation_evaluator(lin, 5, 500)
    iterate = _polynomial(model02, 2)
    got = ev.values(iterate)
    assert np.array_equal(got, ev.disc.f)
    assert np.array_equal(got, _per_node_values(ev, plan, iterate))
    counting = _Counting(iterate)
    ev.values(counting)
    assert counting.components == []


def test_pc_psi_plan_of_an_all_x_system_evaluates_no_kernel(model01,
                                                            monkeypatch):
    lin = linearize(model01)
    disc = PCDiscretization(lin, Mesh.uniform(model01.curves.horizon, 16))
    # every G is x: psi keeps no band
    assert disc._psi == []
    evaluated, frozen_calls = [], []
    call, frozen = Expression.__call__, LinearizedSystem.frozen_pairs

    def counting_call(self, *args, **kwargs):
        evaluated.append(self)
        return call(self, *args, **kwargs)

    def counting_frozen(self, plan, *args):
        frozen_calls.append(plan.band)
        return frozen(self, plan, *args)

    monkeypatch.setattr(Expression, "__call__", counting_call)
    monkeypatch.setattr(LinearizedSystem, "frozen_pairs", counting_frozen)
    ev = PsiEvaluator(lin, disc)
    assert frozen_calls == []
    kernels = [e for row in model01.kernels + model01.g_x for e in row]
    assert not any(any(e is k for k in kernels) for e in evaluated)
    # nothing is planned: the band edges are not formed either
    assert model01.curves.interior
    assert not any(any(e is c for c in model01.curves.interior)
                   for e in evaluated)
    assert np.array_equal(ev.values(lin.x0), ev.disc.f)


def test_reused_buffer_carries_no_state_between_calls():
    # the G with s are summed on the plan, through a buffer kept per band
    system = _s_dependent_system()
    lin = linearize(system)
    mesh = Mesh.uniform(lin.curves.horizon, 8)
    builds = [(lambda: _collocation_evaluator(lin, 5, 700)[0],
               _polynomial(system, 3, degree=5),
               _polynomial(system, 4, degree=5)),
              (lambda: pc_psi_evaluator(lin, mesh)[1],
               _steps(system, mesh, 3), _steps(system, mesh, 4))]
    for build, a, b in builds:
        ev = build()
        for iterate in (a, b, a, b):
            assert np.array_equal(ev.values(iterate),
                                  build().values(iterate))
        assert all(band.buffer is not None for band in ev.disc._psi)


@pytest.mark.parametrize("name", ["nonlinear-scalar", "nonlinear-sys2"])
def test_step_psi_evaluates_g_once_per_piece_and_locates_no_abscissa(
        name, monkeypatch):
    system = builtin(name)
    lin = linearize(system)
    _, ev = pc_psi_evaluator(lin, Mesh.uniform(system.curves.horizon, 32))
    steps = solve_linear_pc(system, n_segments=32)
    evaluated, located = [], []
    call = Expression.__call__

    def counting_call(self, t=None, s=None, x=None):
        evaluated.append((self, s is None, np.size(x)))
        return call(self, t=t, s=s, x=x)

    monkeypatch.setattr(Expression, "__call__", counting_call)
    monkeypatch.setattr(Mesh, "segment_indices",
                        lambda self, vs: located.append(np.size(vs)))
    ev.values(steps)
    # every G is free of s: one G value per piece, and nothing else is
    # evaluated or located
    assert evaluated == [(system.nonlinearities[i][band.band], True,
                          band.piece_width.size)
                         for band in ev.disc._psi for i in band.equations]
    assert located == []


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("n_segments", [16, 24, 32, 48, 64, 96, 128])
def test_every_cut_plan_piece_lies_in_its_mesh_segment(name, n_segments):
    # model02's curves t/3 and 2t/3 meet mesh nodes only in exact
    # arithmetic (at N = 24, 48 and 96 a band edge is snapped onto a node)
    lin = linearize(builtin(name))
    # every pair planned, G = x too, so every band is checked
    lin.nonlinear_equations = tuple(tuple(range(lin.n_equations))
                                    for _ in range(lin.n_bands))
    mesh = Mesh.uniform(lin.curves.horizon, n_segments)
    disc = PCDiscretization(lin, mesh)
    assert [band.band for band in disc._psi] == list(range(lin.n_bands))
    for band, plan in zip(disc._psi, psi_plans(disc)):
        located = mesh.segment_indices(plan.abscissas) - 1
        assert np.array_equal(located, np.repeat(band.segment[:, None],
                                                 PIECE_PANELS, axis=1))


def test_collocation_psi_moments_are_the_assembly_products(sys2):
    # R = A @ table.T is the product the moment assembly takes, bit for bit
    lin = linearize(sys2)
    disc = collocation.CollocationDiscretization(lin, 4)
    table = quadrature.reference_powers(disc.panels, 4)
    products = [[whole_plan_frozen(lin, plan, disc.times)[1][i] @ table.T
                 for i in band.equations]
                for band, plan in zip(disc._psi, psi_plans(disc))]
    ev = PsiEvaluator(lin, disc)
    ev.values(_polynomial(sys2, 5, degree=4))
    assert [[r.tobytes() for r in band.moments] for band in disc._psi] \
        == [[r.tobytes() for r in band] for band in products]


@pytest.mark.parametrize("name", ["nonlinear-sys2", "nonlinear-scalar"])
def test_collocation_psi_after_the_guess_evaluates_no_g(name, monkeypatch):
    system = builtin(name)
    ev, plan = _node_evaluator(name, 6)
    iterate = _polynomial(system, 6)
    evaluated = []
    call = Expression.__call__

    def counting_call(self, t=None, s=None, x=None):
        evaluated.append((s is None, np.shape(x)))
        return call(self, t=t, s=s, x=x)

    monkeypatch.setattr(Expression, "__call__", counting_call)
    guess = ev.values(ev.lin.x0)
    # psi at the guess is the value the evaluator was built with
    assert evaluated == []
    first = ev.values(iterate)
    got = ev.values(iterate)
    # every G is a polynomial: after the guess no G is evaluated on the
    # plan, with its abscissas or at the iterate on its panels, and neither
    # A nor K is kept
    assert evaluated and all(free and shape[-1] != ev.disc.panels
                             for free, shape in evaluated)
    assert all(kernel is None and band.buffer is None
               for band in ev.disc._psi for kernel in band.kernels)
    assert np.array_equal(guess, ev.values(ev.lin.x0))
    assert np.array_equal(first, got)
    assert np.array_equal(got, _per_node_values(ev, plan, iterate))


@pytest.mark.parametrize("name", ["nonlinear-sys2", "nonlinear-scalar"])
def test_collocation_psi_evaluates_each_g_once_on_its_chebyshev_points(
        name, monkeypatch):
    system = builtin(name)
    ev, plan = _node_evaluator(name, 6)
    iterate = _polynomial(system, 6)
    ev.values(ev.lin.x0)
    ev.values(iterate)          # the weights of degree 6 are built here
    evaluated = []
    call = Expression.__call__

    def counting_call(self, t=None, s=None, x=None):
        evaluated.append((self, s is None, np.shape(x)))
        return call(self, t=t, s=s, x=x)

    monkeypatch.setattr(Expression, "__call__", counting_call)
    got = ev.values(iterate)
    # every G is a polynomial of degree g in x: one call per pair, on the
    # iterate at g * 6 + 1 Chebyshev points of every piece, and no plan
    # abscissa is kept or read
    nonlinearities = system.nonlinearities
    assert evaluated == [
        (nonlinearities[i][band.band], True, (
            band.piece_width.size,
            polynomial_degree(nonlinearities[i][band.band], 60) * 6 + 1))
        for band in ev.disc._psi for i in band.equations]
    assert all(band.abscissas is None for band in ev.disc._psi)
    assert np.array_equal(got, _per_node_values(ev, plan, iterate))


@pytest.mark.parametrize("name, planned", [
    ("nonlinear-sys2", [False, False]), ("nonlinear-scalar", [False]),
    # x^2 + s*x in band 1 and x + s*x^4 in band 2
    ("s-dependent", [True, True])])
def test_only_a_band_with_g_summed_on_the_plan_holds_a_buffer(name, planned):
    system = _system(name)
    ev, _ = _node_evaluator(name, 5, 700, degree=6)
    ev.values(_polynomial(system, 7))
    assert [band.buffer is not None for band in ev.disc._psi] == planned
    for band in ev.disc._psi:
        if band.buffer is not None:
            assert band.buffer.shape == (band.piece_width.size, 700)
    # a step iterate: only a G with s is summed on the plan
    ev, _, mesh = _cut_evaluator(name, 16)
    steps = PiecewiseConstantSolution(
        mesh, np.zeros(system.n_components),
        np.ones((system.n_components, 16)), system.component_domains())
    ev.values(steps)
    assert [band.buffer is not None for band in ev.disc._psi] == planned


#: per band (0-based) of the s-dependent system, the 0-based equations
#: whose G uses s: x^2 + s*x in band 1, x + s*x^4 in band 2
S_PAIRS = {0: [0], 1: [1]}


@pytest.mark.parametrize("name", ["nonlinear-sys2", "nonlinear-scalar",
                                  "s-dependent"])
@pytest.mark.parametrize("cut", [False, True])
def test_psi_keeps_only_what_its_later_calls_read(name, cut):
    system = _system(name)
    if cut:
        # pc keeps what psi reads from its set-up on
        ev, _, _ = _cut_evaluator(name, 16)
    else:
        ev, _ = _node_evaluator(name, 5, 700)
        ev.values(_polynomial(system, 5, degree=5))
    # psi keeps no A, and after set-up (pc) or the first solver iterate
    # (collocation) only a pair whose G uses s keeps K, its band the
    # abscissas and a buffer
    on_plan = S_PAIRS if name == "s-dependent" else {}
    for band in ev.disc._psi:
        summed = on_plan.get(band.band, [])
        assert len(band.kernels) == len(band.moments) == len(band.weights) \
            == len(band.equations)
        assert [i for i, kernel in zip(band.equations, band.kernels)
                if kernel is not None] == summed
        assert (band.abscissas is not None) == bool(summed)
        assert (band.buffer is not None) == bool(summed)
        # neither the plan nor sums at the guess are kept; a pc band keeps
        # the time of each run, not of each piece
        assert not hasattr(band, "plan") and not hasattr(band, "guess")
        assert band.times.shape == (band.runs.shape if cut
                                    else band.piece_width.shape)


@pytest.mark.parametrize("name", ["nonlinear-sys2", "nonlinear-scalar",
                                  "s-dependent"])
@pytest.mark.parametrize("cut", [False, True])
def test_handed_over_guess_sums_are_the_whole_plan_sums(name, cut):
    # the solver's pass sums psi at the guess block by block into f; the
    # sums must be the ones taken on each whole plan, added piece by piece
    lin = linearize(_system(name))
    if cut:
        disc = PCDiscretization(lin, Mesh.uniform(lin.curves.horizon, 128))
    else:
        disc = collocation.CollocationDiscretization(lin, 7)
    plans = psi_plans(disc)
    assert plans
    # each plan spans more than one block of the pass
    assert all(plan.piece_width.size * plan.panels > BLOCK_VALUES
               for plan in plans)
    assert disc.psi_at_guess.tobytes() == guess_reference(disc).tobytes()


@pytest.mark.parametrize("name", ["nonlinear-scalar", "nonlinear-sys2"])
def test_pc_psi_keeps_per_piece_only_the_width_segment_and_sums(name):
    lin = linearize(builtin(name))
    disc = PCDiscretization(lin, Mesh.uniform(lin.curves.horizon, 64))
    for band in disc._psi:
        assert not hasattr(band, "plan") and band.abscissas is None
        # one time per run, at most one run per mesh node
        assert band.times.shape == band.runs.shape
        assert band.runs.size <= 64
        # per piece the panel width, the int32 mesh segment, and per pair
        # the row sums of A and of K
        assert band.segment.dtype == np.int32
        kept = [band.piece_width, band.segment, *band.moments,
                *band.weights]
        assert sum(a.nbytes for a in kept) == band.piece_width.size * (
            8 + 4 + 16 * len(band.equations))


@pytest.mark.parametrize("cut", [False, True])
def test_psi_refuses_an_iterate_its_solver_does_not_make(sys2, cut):
    mesh = Mesh.uniform(sys2.curves.horizon, 16)
    other_mesh = _steps(sys2, Mesh.uniform(sys2.curves.horizon, 32), 3)
    if cut:
        build = lambda: _cut_evaluator("nonlinear-sys2", 16)[0]  # noqa: E731
        first = _steps(sys2, mesh, 1)
        refused = [(_polynomial(sys2, 2, degree=4), "PolynomialSolution"),
                   (other_mesh, "PiecewiseConstantSolution on a mesh of 32 "
                                "segments")]
    else:
        build = lambda: _node_evaluator("nonlinear-sys2", 4)[0]  # noqa: E731
        first = _polynomial(sys2, 1, degree=4)
        refused = [(_polynomial(sys2, 2, degree=5),
                    "PolynomialSolution of degree 5"),
                   (_steps(sys2, mesh, 2), "PiecewiseConstantSolution"),
                   (other_mesh, "PiecewiseConstantSolution")]
    # an expression iterate is served only as the linearization point, by
    # the evaluator from the solver's psi at the guess
    refused += [(sys2.exact_iterate(), "ExpressionIterate"),
                (sys2.guess_iterate(), "ExpressionIterate")]
    ev = build()
    for _ in range(2):
        for iterate, got in refused:
            with pytest.raises(SolverError, match=f"got {got}$"):
                ev.values(iterate)
        # the solver itself refuses the linearization point, and leaves
        # ``out`` as it was
        out = ev.disc.f.copy()
        with pytest.raises(SolverError, match="got ExpressionIterate$"):
            ev.disc.add_psi(out, ev.lin.x0)
        assert out.tobytes() == ev.disc.f.tobytes()
        # a refused iterate leaves the solver as it was: collocation,
        # before its first iterate, still holds K, and psi reads as on a
        # solver that never saw one
        if ev.disc._psi[0].weights is None:
            assert all(kernel is not None for band in ev.disc._psi
                       for kernel in band.kernels)
            assert np.array_equal(ev.values(first), build().values(first))
    assert np.array_equal(ev.values(first), build().values(first))


@pytest.mark.parametrize("cut", [False, True])
def test_psi_at_the_guess_is_a_copy_of_the_solvers_read_only_array(cut):
    if cut:
        ev = _cut_evaluator("nonlinear-sys2", 16)[0]
    else:
        ev = _node_evaluator("nonlinear-sys2", 4)[0]
    guess = ev.disc.psi_at_guess
    assert not guess.flags.writeable and not ev.disc.f.flags.writeable
    first, second = ev.values(ev.lin.x0), ev.values(ev.lin.x0)
    assert first.tobytes() == second.tobytes() == guess.tobytes()
    # each call gives an array of its own
    first += 1.0
    assert second.tobytes() == guess.tobytes()
    assert not np.shares_memory(second, guess)


@pytest.mark.parametrize("cut", [False, True])
@pytest.mark.parametrize("name, summed", [
    ("nonlinear-sys2", {}), ("nonlinear-scalar", {}),
    ("s-dependent", S_PAIRS)])
def test_k_of_a_pair_with_weights_goes_at_the_first_solver_iterate(
        name, summed, cut, monkeypatch):
    # K of every pair that gets weights is reachable neither from the
    # solver nor from psi once the weights are built, at set-up for pc and
    # at the first iterate for collocation; only K of a G summed on the
    # plan stays
    kept = []
    frozen_pairs = LinearizedSystem.frozen_pairs

    def recording(self, *args):
        for i, a, kernel, reduced in frozen_pairs(self, *args):
            if kernel is not None:
                kept.append((args[0].band - 1, i, weakref.ref(kernel)))
            yield i, a, kernel, reduced

    def alive():
        gc.collect()
        return [(j, i) for j, i, ref in kept if ref() is not None]

    monkeypatch.setattr(LinearizedSystem, "frozen_pairs", recording)
    system = _system(name)
    if cut:
        ev, _, mesh = _cut_evaluator(name, 16)
        iterate = _steps(system, mesh, 1)
    else:
        ev, _ = _node_evaluator(name, 5, 700)
        iterate = _polynomial(system, 1, degree=5)
        assert kept and alive() == [(j, i) for j, i, _ in kept]
    expected = [(j, i) for j, i, _ in kept if i in summed.get(j, [])]
    if cut:
        assert kept and alive() == expected
    ev.values(ev.lin.x0)
    ev.values(iterate)
    assert alive() == expected


@pytest.mark.parametrize("name, cut", [("model01", True), ("model02", False)])
def test_an_empty_hand_off_gives_f_for_any_iterate(name, cut):
    system = builtin(name)
    if cut:
        ev, plan, _ = _cut_evaluator(name, 16)
    else:
        ev, plan = _node_evaluator(name, 4)
    assert plan == [] and ev.disc._psi == []
    assert ev.disc.psi_at_guess.tobytes() == ev.disc.f.tobytes()
    mesh = Mesh.uniform(system.curves.horizon, 32)
    for iterate in (system.exact_iterate(), _polynomial(system, 1),
                    _polynomial(system, 2, degree=9), _steps(system, mesh, 3)):
        assert np.array_equal(ev.values(iterate), ev.disc.f)
