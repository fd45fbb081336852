"""PsiEvaluator.values and the Horner iterates against the loops they replace.

``_reference_values`` is the psi loop kept as a reference: ``polyval`` for
polynomial iterates and a fresh ``concatenate`` plus ``cumsum`` per pair,
over the pairs the evaluator keeps (those whose G is not x).  The evaluator
must match it bit for bit.
"""

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from bandvie.collocation import PolynomialSolution, collocation_nodes
from bandvie.expr import Expression
from bandvie.newton import PsiEvaluator
from bandvie.pc import Mesh, solve_linear_pc
from bandvie.problem import LinearizedSystem, linearize
from bandvie.quadrature import BandPieces, midpoint_plan


def _reference_values(ev, iterate):
    lin = ev.lin
    system = lin.system
    out = ev._f_vals.copy()
    for band in ev._bands:
        j, s = band.band, band.abscissas
        comp = lin.unknown_of_band[j]
        if isinstance(iterate, PolynomialSolution):
            xm = polyval(s, iterate.coefficients[comp - 1])
        else:
            xm = np.asarray(iterate.component_values(comp, s), dtype=float)
        for i, kernel, gx0 in band.pairs:
            gm = np.broadcast_to(np.asarray(
                system.nonlinearities[i][j](s=s, x=xm), float), s.shape)
            contrib = kernel * (gx0 * xm - gm)
            csum = np.concatenate(([0.0], np.cumsum(contrib)))
            out[i] += csum[band.ends] - csum[band.starts]
    return out


def _polynomial(system, seed, degree=6):
    """A polynomial iterate near the guess: small random coefficients."""
    rng = np.random.default_rng(seed)
    coeffs = 0.3 * rng.standard_normal((system.n_components, degree + 1))
    return PolynomialSolution(coeffs, system.component_domains())


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
    ev = PsiEvaluator(lin, collocation_nodes(sys2.curves.horizon, 6))
    for iterate in (sys2.guess_iterate(), _polynomial(sys2, 1)):
        assert np.array_equal(ev.values(iterate),
                              _reference_values(ev, iterate))


def test_scalar_with_mesh_cuts_bit_identical_and_skips_band_2(scalar):
    lin = linearize(scalar)
    mesh = Mesh.uniform(scalar.curves.horizon, 16)
    ev = PsiEvaluator(lin, mesh.nodes[1:], cuts=mesh.nodes[1:-1])
    for iterate in (scalar.guess_iterate(),
                    solve_linear_pc(scalar, n_segments=16)):
        assert np.array_equal(ev.values(iterate),
                              _reference_values(ev, iterate))
    # band 2 has G = x: the iterate is evaluated for band 1 only
    counting = _Counting(scalar.guess_iterate())
    ev.values(counting)
    assert counting.components == [1]


def test_model02_psi_is_f_and_never_evaluates_the_iterate(model02):
    lin = linearize(model02)
    ev = PsiEvaluator(lin, collocation_nodes(model02.curves.horizon, 5),
                      panels=500)
    iterate = _polynomial(model02, 2)
    got = ev.values(iterate)
    assert np.array_equal(got, ev._f_vals)
    assert np.array_equal(got, _reference_values(ev, iterate))
    counting = _Counting(iterate)
    ev.values(counting)
    assert counting.components == []


def test_pc_psi_plan_of_an_all_x_system_evaluates_no_kernel(model01,
                                                            monkeypatch):
    lin = linearize(model01)
    lin.origin_factors          # the t = 0 values belong to the start matrix
    evaluated, frozen_calls = [], []
    call, frozen = Expression.__call__, LinearizedSystem.frozen_factors

    def counting_call(self, *args, **kwargs):
        evaluated.append(self)
        return call(self, *args, **kwargs)

    def counting_frozen(self, *args):
        frozen_calls.append(args[0])
        return frozen(self, *args)

    monkeypatch.setattr(Expression, "__call__", counting_call)
    monkeypatch.setattr(LinearizedSystem, "frozen_factors", counting_frozen)
    mesh = Mesh.uniform(model01.curves.horizon, 16)
    ev = PsiEvaluator(lin, mesh.nodes[1:], cuts=mesh.nodes[1:-1])
    assert frozen_calls == []
    kernels = [e for row in model01.kernels + model01.g_x for e in row]
    assert not any(any(e is k for k in kernels) for e in evaluated)
    assert ev._bands == []


def test_reused_buffer_carries_no_state_between_calls(sys2, scalar):
    nodes = Mesh.uniform(scalar.curves.horizon, 8).nodes
    cases = [(sys2, collocation_nodes(sys2.curves.horizon, 5), None),
             (scalar, nodes[1:], nodes[1:-1])]
    for system, times, cuts in cases:
        lin = linearize(system)
        a, b = _polynomial(system, 3), _polynomial(system, 4)
        ev = PsiEvaluator(lin, times, cuts=cuts, panels=700)
        for iterate in (a, b, a, b):
            fresh = PsiEvaluator(lin, times, cuts=cuts, panels=700)
            assert np.array_equal(ev.values(iterate), fresh.values(iterate))


def test_piece_sums_group_once_and_match_per_piece_sums():
    counts = np.array([3, 5, 3, 1, 5, 5, 2])
    lo = np.arange(counts.size, dtype=float)
    pieces = BandPieces(band=1, lo=lo, hi=lo + 0.5,
                        time_index=np.arange(counts.size),
                        seg_length=np.full(counts.size, 0.5))
    plan = midpoint_plan(pieces, counts)
    rng = np.random.default_rng(5)
    for _ in range(2):          # the second call reuses the cached groups
        values = rng.standard_normal(plan.abscissas.size)
        ref = np.array([values[a:b].sum()
                        for a, b in zip(plan.offsets[:-1], plan.offsets[1:])])
        assert np.array_equal(plan.piece_sums(values), ref)
    assert plan._piece_groups is plan._piece_groups
    uniform = midpoint_plan(pieces, 4)
    values = rng.standard_normal(uniform.abscissas.size)
    assert uniform._piece_groups is None
    assert np.array_equal(uniform.piece_sums(values),
                          values.reshape(counts.size, 4).sum(axis=1))
