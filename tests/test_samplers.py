"""Each inner solver samples its own iterates for the correction norm.

``disc.sampler(grids)`` keeps what the grids give once per run: the pc
sampler the mesh segments and the t = 0 mask, bit for bit the iterate's
``component_values``; the collocation sampler the powers t^r of each
grid, within a rounding bound of Horner's rule.  Like ``add_psi``, a
sampler refuses an iterate its solver does not make and changes nothing.
"""

import numpy as np
import pytest

from bandvie import quadrature
from bandvie.collocation import CollocationDiscretization, PolynomialSolution
from bandvie.errors import SolverError
from bandvie.newton import NORM_SAMPLES, PsiEvaluator, correction_norm
from bandvie.pc import Mesh, PCDiscretization, PiecewiseConstantSolution
from bandvie.problem import linearize
from bandvie.registry import builtin

EPS = np.finfo(float).eps


def norm_grids(system, horizon=False):
    """The run's norm grids, one row per component: each component's
    domain, or with ``horizon`` all of [0, T]."""
    return np.array([
        np.linspace(0.0, system.curves.horizon if horizon else domain,
                    NORM_SAMPLES)
        for domain in system.component_domains()])


def second_iterate(disc):
    """The solver's iterate after two outer steps from the guess."""
    lin = disc.lin
    ev = PsiEvaluator(lin, disc)
    x = lin.x0
    for _ in range(2):
        x = disc.solve(ev.values(x), lin.derivative_at_zero(x))
    return x


@pytest.mark.parametrize("n_segments", [32, 64])
@pytest.mark.parametrize("name", ["nonlinear-sys2", "model02",
                                  "nonlinear-scalar"])
def test_pc_sampler_is_component_values_bit_for_bit(name, n_segments):
    system = builtin(name)
    disc = PCDiscretization(linearize(system),
                            Mesh.uniform(system.curves.horizon, n_segments))
    steps = second_iterate(disc)
    for horizon in (False, True):
        grids = norm_grids(system, horizon)
        got = disc.sampler(grids)(steps)
        assert got.shape == grids.shape
        for i, ts in enumerate(grids, start=1):
            assert got[i - 1].tobytes() == steps.component_values(
                i, ts).tobytes()
            # t = 0 reads the start value, not the first segment's
            assert got[i - 1, 0] == steps.start[i - 1]
    if name == "nonlinear-sys2":
        # component 1 lives on [0, 0.5]: its segments past 0.5 are nan
        assert np.all(np.isnan(got[0, grids[0] > 0.5]))
        assert np.all(np.isfinite(got[0, grids[0] <= 0.5]))


@pytest.mark.parametrize("degree", range(2, 13))
def test_collocation_sampler_is_horner_within_rounding(sys2, degree):
    disc = CollocationDiscretization(linearize(sys2), degree)
    rng = np.random.default_rng(degree)
    mixed = PolynomialSolution(rng.standard_normal((2, degree + 1)),
                               sys2.component_domains())
    grids = norm_grids(sys2)
    sample = disc.sampler(grids)
    for poly in (second_iterate(disc), mixed):
        got = sample(poly)
        assert got.shape == grids.shape
        for i, ts in enumerate(grids, start=1):
            # both sums round each of their 2(m + 1) or fewer operations
            # once: |delta| <= 4 (m + 1) eps sum_r |c_r| t^r
            scale = np.abs(poly.coefficients[i - 1]) @ quadrature.powers(
                ts, degree)
            delta = np.abs(got[i - 1] - poly.component_values(i, ts))
            assert np.all(delta <= 4 * (degree + 1) * EPS * scale)
            assert got[i - 1, 0] == poly.coefficients[i - 1, 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_coefficient_gives_non_finite_samples(sys2, bad):
    disc = CollocationDiscretization(linearize(sys2), 4)
    good = second_iterate(disc)
    grids = norm_grids(sys2)
    sample = disc.sampler(grids)
    for r in range(5):
        coefficients = good.coefficients.copy()
        coefficients[1, r] = bad
        poly = PolynomialSolution(coefficients, sys2.component_domains())
        # inf * 0 at t = 0 is invalid
        with np.errstate(invalid="ignore"):
            got = sample(poly)
        assert not np.any(np.isfinite(got[1]))
        assert got[0].tobytes() == sample(good)[0].tobytes()
        # so the correction norm names it, and no run stops on it
        with np.errstate(invalid="ignore"), pytest.raises(
                SolverError, match=r"^correction of component 2 is "):
            correction_norm(good, poly, [], disc)


def _collocation(system):
    disc = CollocationDiscretization(linearize(system), 4)
    mesh = Mesh.uniform(system.curves.horizon, 16)
    domains = system.component_domains()
    foreign = [
        (PolynomialSolution(np.ones((2, 6)), domains),
         "PolynomialSolution of degree 5"),
        (PolynomialSolution(np.ones((1, 5)), domains[:1]),
         "PolynomialSolution of degree 4 with n_components = 1"),
        (PiecewiseConstantSolution(mesh, np.zeros(2), np.ones((2, 16)),
                                   domains), "PiecewiseConstantSolution"),
        (system.guess_iterate(), "ExpressionIterate")]
    return disc, "collocation sampler takes a polynomial of degree 4", foreign


def _pc(system):
    mesh = Mesh.uniform(system.curves.horizon, 16)
    disc = PCDiscretization(linearize(system), mesh)
    other = Mesh.uniform(system.curves.horizon, 32)
    domains = system.component_domains()
    foreign = [
        (PiecewiseConstantSolution(other, np.zeros(2), np.ones((2, 32)),
                                   domains),
         "PiecewiseConstantSolution on a mesh of 32 segments"),
        (PiecewiseConstantSolution(mesh, np.zeros(1), np.ones((1, 16)),
                                   domains[:1]),
         "PiecewiseConstantSolution on a mesh of 16 segments with "
         "n_components = 1"),
        (PolynomialSolution(np.ones((2, 5)), domains), "PolynomialSolution"),
        (system.guess_iterate(), "ExpressionIterate")]
    return disc, "pc sampler takes steps on its mesh of 16 segments", foreign


@pytest.mark.parametrize("build", [_collocation, _pc])
def test_a_sampler_refuses_a_foreign_iterate_and_changes_nothing(sys2,
                                                                 build):
    disc, prefix, foreign = build(sys2)
    own = second_iterate(disc)
    grids = norm_grids(sys2)
    sample = disc.sampler(grids)
    before = sample(own).tobytes()
    for iterate, got in foreign:
        with pytest.raises(SolverError, match=f"^{prefix}, got {got}$"):
            sample(iterate)
    assert sample(own).tobytes() == before
    assert disc.sampler(grids)(own).tobytes() == before
    # psi refuses by the same check, a wrong component count too
    iterate, got = foreign[1]
    out = disc.f.copy()
    with pytest.raises(SolverError, match=f"psi takes .*, got {got}$"):
        disc.add_psi(out, iterate)
    assert out.tobytes() == disc.f.tobytes()
