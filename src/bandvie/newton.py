"""Outer iteration: frozen-derivative Newton steps in function space.

The integral operator is linearized once, at the initial guess, and the
same discretized linear operator is solved at every step; only the
right-hand side

    psi_i(t) = f_i(t) + sum_j integral K_ij(t,s) *
               [ dG_ij/dx(s, x0_j(s)) * xm_j(s) - G_ij(s, xm_j(s)) ] ds

is rebuilt from the current iterate xm.  (Writing the step for the new
iterate rather than the correction puts the bracket on the right with the
sign above; with it, the exact solution is a fixed point.)

A pair with G_ij = x adds nothing to psi (for a finite iterate its bracket
is 1 * xm - xm = 0 exactly), so the evaluator skips it.

One run is sequential in the iteration index; independent runs can share
the immutable problem data, but not a :class:`PsiEvaluator`: it holds a
scratch buffer that every call overwrites, so it belongs to one run and
must not be shared between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import quadrature
from .collocation import DEFAULT_MOMENT_PANELS, CollocationDiscretization
from .errors import DivergenceError, ProblemDefinitionError, SolverError
from .expr import parse
from .pc import HISTORY_PANELS, Mesh, PCDiscretization
from .problem import linearize, validate
from .report import measure_errors

#: midpoint panels per smooth band segment for the right-hand-side integrals
DEFAULT_PSI_PANELS = 8000

#: panels per mesh-aligned piece when the iterate is piecewise constant
PSI_PIECE_PANELS = HISTORY_PANELS

#: sample count per component for the correction sup-norm
NORM_SAMPLES = 1001

#: growth factor over three consecutive iterations that flags divergence
DIVERGENCE_FACTOR = 1e3

#: the nonlinearity whose psi bracket G'(x0) * xm - G(xm) is exactly zero
_IDENTITY = parse("x")


@dataclass(frozen=True)
class IterationRecord:
    """One outer step: correction norm plus errors when the exact is known."""

    index: int
    correction: float
    ratio: float = None              # correction / previous correction
    component_errors: tuple = ()
    aggregate_error: float = None


@dataclass
class IterationReport:
    records: list = field(default_factory=list)
    stop_reason: str = None          # "tolerance" | "max-iterations" | "divergence"

    @property
    def correction_ratios(self):
        """Empirical geometric-rate sequence ||dX^{m+1}|| / ||dX^m||."""
        return tuple(r.ratio for r in self.records if r.ratio is not None)


def correction_norm(prev, nxt):
    """Sup over components of the sup over sampled t of |next - prev|.

    Each component is sampled at ``NORM_SAMPLES`` uniform points on its own
    interval of definition (endpoints included).

    Raises
    ------
    SolverError
        If the correction of a component is not finite; the component and
        the first bad t are named.
    """
    worst = 0.0
    for i in range(1, nxt.n_components + 1):
        ts = np.linspace(0.0, nxt.component_domains[i - 1], NORM_SAMPLES)
        a = np.asarray(prev.component_values(i, ts), dtype=float)
        b = np.asarray(nxt.component_values(i, ts), dtype=float)
        diff = np.abs(b - a)
        top = float(np.max(diff))      # nan propagates through max
        if not math.isfinite(top):
            k = int(np.argmax(~np.isfinite(diff)))
            raise SolverError(
                f"correction of component {i} is {diff[k]} at t = "
                f"{ts[k]:.6g} (previous {a[k]}, next {b[k]})")
        worst = max(worst, top)
    return worst


class _PsiBand(NamedTuple):
    """One band of the psi plan that has a pair with G not x.

    The abscissas of time r are ``abscissas[starts[r]:ends[r]]``; ``pairs``
    holds (0-based equation, K * quadrature weight, dG/dx(x0)) for each
    equation whose G is not x, and ``csum`` is the prefix-sum buffer,
    ``csum[0] = 0``, that :meth:`PsiEvaluator.values` overwrites.
    """

    band: int  # 0-based
    component: int  # 1-based
    starts: np.ndarray
    ends: np.ndarray
    abscissas: np.ndarray
    pairs: tuple
    csum: np.ndarray


class PsiEvaluator:
    """Right-hand-side evaluator with a precomputed quadrature plan.

    The plan (abscissas, weights, kernel values, frozen-slope values) only
    depends on the linearized system and the evaluation times, so one
    evaluator serves every outer iteration; per iteration only the iterate
    and the nonlinearity are re-evaluated on the fixed abscissas.

    ``cuts`` lists global breakpoints (mesh nodes for piecewise-constant
    iterates) at which band segments are split into pieces of
    ``PSI_PIECE_PANELS`` midpoint panels each; without cuts each band
    segment is one smooth piece with ``panels`` midpoint panels.  Instead
    of building its own plan, the evaluator can take ``frozen``, the band
    plans a :class:`CollocationDiscretization` took its moments from
    (:meth:`~CollocationDiscretization.take_frozen_plan`, planned over
    ``times`` without cuts); it then evaluates no kernel itself.

    Only pairs with G_ij other than x are kept: a band where every G is x
    is neither planned nor evaluated.  Per band the evaluator keeps one
    prefix-sum buffer that :meth:`values` overwrites; so one evaluator
    serves one run and must not be shared between threads.
    """

    def __init__(self, lin, times, cuts=None, panels=DEFAULT_PSI_PANELS,
                 frozen=None):
        self.lin = lin
        self.times = np.asarray(times, dtype=float)
        system = lin.system
        n_bands = lin.n_bands
        active = [[i for i in range(lin.n_equations)
                   if system.nonlinearities[i][j] != _IDENTITY]
                  for j in range(n_bands)]
        if frozen is None:
            frozen = self._plan(active, cuts, panels)
        self._bands = []
        for plan, kvs, gvs in frozen:
            j = plan.band - 1
            s = plan.abscissas
            if not (active[j] and s.size):
                continue
            ends = np.cumsum(np.bincount(
                plan.time_index, minlength=self.times.size))
            weights = plan.weights
            self._bands.append(_PsiBand(
                band=j, component=lin.unknown_of_band[j],
                starts=np.concatenate(([0], ends[:-1])), ends=ends,
                abscissas=s,
                pairs=tuple((i, kvs[i] * weights, gvs[i]) for i in active[j]),
                csum=np.zeros(s.size + 1)))

        self._f_vals = np.vstack([
            np.broadcast_to(np.asarray(f(t=self.times), float),
                            self.times.shape)
            for f in system.rhs])
        self._fp0 = np.array([float(fp(t=0.0)) for fp in system.rhs_prime])
        self._k00, self._gx0_at0 = lin.origin_factors
        slopes = [float(lin.curves.alpha_prime(j, 0.0))
                  for j in range(n_bands + 1)]
        self._dslopes = np.diff(np.asarray(slopes))

    def _plan(self, active, cuts, panels):
        """``(plan, K, dG/dx)`` per band that has a pair with G not x."""
        lin = self.lin
        edges = quadrature.band_edges(self.times, lin.curves)
        for pieces in quadrature.band_pieces(edges, cuts):
            if active[pieces.band - 1]:
                plan = quadrature.midpoint_plan(
                    pieces, panels if cuts is None else PSI_PIECE_PANELS)
                yield (plan, *lin.frozen_factors(
                    plan.band, self.times[plan.time_index], plan.abscissas))

    def values(self, iterate):
        """Psi at the planned times for the given iterate; shape (n_eq, n_times)."""
        nonlinearities = self.lin.system.nonlinearities
        out = self._f_vals.copy()
        for j, comp, starts, ends, s, pairs, csum in self._bands:
            xm = np.asarray(iterate.component_values(comp, s), dtype=float)
            contrib = csum[1:]
            for i, kernel, gx0 in pairs:
                gm = nonlinearities[i][j](s=s, x=xm)
                # K * (G'(x0) * xm - G(xm)), built in the buffer and summed
                # in place: the same products and sequential sums as with
                # temporaries
                np.multiply(gx0, xm, out=contrib)
                np.subtract(contrib, gm, out=contrib)
                np.multiply(kernel, contrib, out=contrib)
                np.cumsum(contrib, out=contrib)
                out[i] += csum[ends] - csum[starts]
        return out

    def derivative_at_zero(self, iterate):
        """d(psi)/dt at t = 0: only the band boundary terms survive."""
        lin = self.lin
        system = lin.system
        out = self._fp0.copy()
        for j in range(lin.n_bands):
            comp = lin.unknown_of_band[j]
            xm0 = iterate.value_at_zero(comp)
            for i in range(lin.n_equations):
                g0 = float(system.nonlinearities[i][j](s=0.0, x=xm0))
                out[i] += (self._k00[i, j] * self._dslopes[j]
                           * (self._gx0_at0[i, j] * xm0 - g0))
        return out


class _PsiRhs:
    """Adapter binding a PsiEvaluator to one iterate (RightHandSide shape)."""

    def __init__(self, evaluator, iterate):
        self._ev = evaluator
        self._it = iterate

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        if ts.shape != self._ev.times.shape or not np.array_equal(
                ts, self._ev.times):
            raise ValueError("psi evaluator was planned for different times")
        return self._ev.values(self._it)

    def derivative_at_zero(self):
        return self._ev.derivative_at_zero(self._it)


def psi(system, x0, xm, ts, panels=DEFAULT_PSI_PANELS):
    """Right-hand side Psi at the times ts for guess x0 and iterate xm.

    ``x0`` and ``xm`` follow the iterate protocol (ExpressionIterate,
    piecewise-constant or polynomial solutions).  Band segments are split
    at the iterate's breakpoints before integration.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    lin = linearize(system, x0)
    horizon = system.curves.horizon
    cuts = np.asarray(xm.breakpoints_in(0.0, horizon), dtype=float)
    if cuts.size:
        ev = PsiEvaluator(lin, ts, cuts=cuts)
    else:
        ev = PsiEvaluator(lin, ts, panels=panels)
    return ev.values(xm)


def iterate(system, method="collocation", degree=None, n_segments=None,
            max_iters=20, tol=1e-12, panels=None, skip_validation=False):
    """Run the frozen-derivative outer iteration with an inner linear solver.

    Parameters
    ----------
    system : VolterraSystem
    method : "collocation" or "pc"
    degree : polynomial degree for the collocation inner solver
    n_segments : mesh segments for the piecewise-constant inner solver
    max_iters : iteration cap
    tol : stop once the sampled correction sup-norm drops this low
    panels : inner-solver quadrature panels (moment/coefficient integrals);
        the right-hand-side integrals use ``DEFAULT_PSI_PANELS`` per band
        segment for polynomial iterates and ``PSI_PIECE_PANELS`` per mesh
        piece for piecewise-constant ones.  At the default, collocation
        moments and right-hand sides share one plan and one evaluation of
        the frozen kernel

    Returns
    -------
    (solution, IterationReport)

    Raises
    ------
    DivergenceError
        If the correction norm grows by more than a factor of 1e3 over
        three consecutive iterations; the partial report is attached.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not skip_validation:
        diagnostics = validate(system)
        if diagnostics:
            raise ProblemDefinitionError(
                "system failed validation: "
                + "; ".join(str(d) for d in diagnostics))

    lin = linearize(system)
    if method == "pc":
        if n_segments is None:
            raise ValueError("the pc method needs n_segments")
        mesh = Mesh.uniform(system.curves.horizon, n_segments)
        disc = PCDiscretization(lin, mesh, panels=(
            quadrature.DEFAULT_PANELS if panels is None else panels))
        evaluator = PsiEvaluator(lin, mesh.nodes[1:], cuts=mesh.nodes[1:-1])
    elif method == "collocation":
        if degree is None:
            raise ValueError("the collocation method needs degree")
        disc = CollocationDiscretization(
            lin, degree,
            panels=DEFAULT_MOMENT_PANELS if panels is None else panels)
        # the moments' plan is the psi plan when the panel counts agree;
        # what psi does not keep of it is freed here
        frozen = disc.take_frozen_plan()
        if disc.panels != DEFAULT_PSI_PANELS:
            frozen = None
        evaluator = PsiEvaluator(lin, disc.nodes, frozen=frozen)
        del frozen
    else:
        raise ValueError(f"unknown inner method {method!r}")

    report = IterationReport()
    current = system.guess_iterate()
    prev_correction = None
    solution = None
    for step in range(1, max_iters + 1):
        rhs = _PsiRhs(evaluator, current)
        solution = disc.solve(rhs)
        try:
            corr = correction_norm(current, solution)
        except SolverError as exc:
            raise SolverError(f"iteration {step}: {exc}") from exc
        ratio = None if prev_correction in (None, 0.0) else corr / prev_correction
        comp_errors, aggregate = (), None
        if system.exact is not None:
            comp_errors, aggregate = measure_errors(solution, system)
        report.records.append(IterationRecord(
            index=step, correction=corr, ratio=ratio,
            component_errors=comp_errors, aggregate_error=aggregate))
        current = solution
        prev_correction = corr
        if corr <= tol:
            report.stop_reason = "tolerance"
            break
        if step >= 4:
            base = report.records[step - 4].correction
            if base > 0.0 and corr > DIVERGENCE_FACTOR * base:
                report.stop_reason = "divergence"
                raise DivergenceError(
                    f"correction norm grew from {base:.3e} to {corr:.3e} "
                    f"over three iterations (step {step})", report)
    if report.stop_reason is None:
        report.stop_reason = "max-iterations"
    return solution, report
