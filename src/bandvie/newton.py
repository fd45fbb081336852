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
is 1 * xm - xm = 0 exactly), so the evaluator skips it
(:attr:`LinearizedSystem.nonlinear_equations`).

Psi is summed one way for every plan, with or without mesh cuts: per
piece of the band plan, w * (sum A * xm - sum K * G(xm)) with A = K *
dG/dx(x0) the frozen kernel, and the pieces of an outer time are added in
plan order (:class:`PsiEvaluator`).  No bracket is built per abscissa.
A polynomial iterate is evaluated on the plan as one product with the
plan's table of reference powers (:func:`quadrature.reference_powers`),
through a binomial shift per piece; every other iterate evaluates its
own components.

One run is sequential in the iteration index.  A :class:`PsiEvaluator`
keeps nothing between calls but the power table of the last polynomial
degree it was given, which depends on the plan and that degree alone, so
independent runs can share it as they share the immutable problem data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import quadrature
from .collocation import (
    DEFAULT_MOMENT_PANELS,
    CollocationDiscretization,
    PolynomialSolution,
)
from .errors import DivergenceError, ProblemDefinitionError, SolverError
from .pc import HISTORY_PANELS, Mesh, PCDiscretization
from .problem import linearize, validate
from .report import measure_errors

#: midpoint panels per smooth band segment for the right-hand-side integrals
DEFAULT_PSI_PANELS = 8000

#: sample count per component for the correction sup-norm
NORM_SAMPLES = 1001

#: growth factor over three consecutive iterations that flags divergence
DIVERGENCE_FACTOR = 1e3


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


@functools.lru_cache(maxsize=64)
def _norm_grid(domain):
    """``NORM_SAMPLES`` uniform points on [0, domain], built once, read-only."""
    ts = np.linspace(0.0, domain, NORM_SAMPLES)
    ts.flags.writeable = False
    return ts


def _norm_samples(iterate, i, domain):
    """Component i of ``iterate`` on the norm grid of ``domain``.

    The values are kept on the iterate, keyed by component and domain:
    iterates are not changed after they are built, so an iterate that is
    first the next and then the previous one of a correction is sampled
    once.
    """
    kept = vars(iterate).setdefault("_norm_samples", {})
    values = kept.get((i, domain))
    if values is None:
        values = np.asarray(
            iterate.component_values(i, _norm_grid(domain)), dtype=float)
        kept[i, domain] = values
    return values


def correction_norm(prev, nxt):
    """Sup over components of the sup over sampled t of |next - prev|.

    Each component is sampled at ``NORM_SAMPLES`` uniform points on its own
    interval of definition (endpoints included).  The grid of a domain is
    built once, read-only, and each iterate keeps its samples on itself
    (:func:`_norm_samples`), so along an outer iteration every iterate is
    sampled once, not once as ``nxt`` and again as ``prev``.  That is safe
    because iterates (solutions, expression iterates) are not changed after
    they are built.

    Raises
    ------
    SolverError
        If the correction of a component is not finite; the component and
        the first bad t are named.
    """
    worst = 0.0
    for i, domain in enumerate(nxt.component_domains, start=1):
        a = _norm_samples(prev, i, domain)
        b = _norm_samples(nxt, i, domain)
        diff = np.abs(b - a)
        top = float(np.max(diff))      # nan propagates through max
        if not math.isfinite(top):
            k = int(np.argmax(~np.isfinite(diff)))
            raise SolverError(
                f"correction of component {i} is {diff[k]} at t = "
                f"{_norm_grid(domain)[k]:.6g} (previous {a[k]}, next {b[k]})")
        worst = max(worst, top)
    return worst


class _PsiBand(NamedTuple):
    """One band of a psi plan that has a pair with G not x.

    Row p of every (n_pieces, panels) array is piece p of the plan: outer
    time ``piece_time[p]``, panel width ``piece_width[p]``, lower edge
    ``piece_lo[p]``; a time owns one piece without cuts and several with
    them.  ``abscissas`` is the plan, flat, and ``pairs`` holds (0-based
    equation, A = K * dG/dx(x0), K) for each equation whose G is not x.
    """

    band: int  # 0-based
    component: int  # 1-based
    piece_time: np.ndarray
    piece_width: np.ndarray
    piece_lo: np.ndarray
    abscissas: np.ndarray
    pairs: tuple

    @property
    def panels(self):
        return self.abscissas.size // self.piece_time.size

    def add_to(self, out, xm, nonlinearities):
        """Add w * (sum A * xm - sum K * G(xm)) per piece to its time's psi."""
        shape = self.pairs[0][1].shape
        xm_rows = xm.reshape(shape)
        for i, frozen, kernel in self.pairs:
            gm = np.broadcast_to(nonlinearities[i][self.band](
                s=self.abscissas, x=xm), xm.shape)
            # einsum runs its own loop: a BLAS product would make the last
            # bits depend on the BLAS build and thread count
            rows = np.einsum("kp,kp->k", frozen, xm_rows)
            rows -= np.einsum("kp,kp->k", kernel, gm.reshape(shape))
            rows *= self.piece_width
            # with cuts a time owns several pieces: add.at adds repeated
            # times one by one, in plan order
            np.add.at(out[i], self.piece_time, rows)


class PsiEvaluator:
    """Right-hand-side evaluator with a precomputed quadrature plan.

    The plan (abscissas, weights, kernel values, frozen-kernel values) only
    depends on the linearized system and the evaluation times, so one
    evaluator serves every outer iteration; per iteration only the iterate
    and the nonlinearity are re-evaluated on the fixed abscissas.

    Without ``cuts`` each band segment is one smooth piece with ``panels``
    midpoint panels.  ``cuts`` lists global breakpoints (mesh nodes for
    piecewise-constant iterates) at which band segments are split into
    pieces of ``pc.HISTORY_PANELS`` midpoint panels each, so a time owns a
    varying number of pieces.  Either way psi_i(t_k) = f_i(t_k) + the sum
    over the pieces of t_k of w * (sum A_i * xm - sum K_i * G_i(xm)), with
    A = K * dG/dx(x0) and w the piece's panel width: two row dot products
    per pair.  Instead of building its own plan, the evaluator can take
    ``frozen``, the band plans a :class:`CollocationDiscretization` took
    its moments from (:meth:`~CollocationDiscretization.take_frozen_plan`,
    planned over ``times`` without cuts, with A already formed); it then
    evaluates no kernel itself.

    Only pairs with G_ij other than x are kept: a band where every G is x
    is neither planned nor evaluated, and a system whose G are all x
    plans nothing.

    A :class:`~bandvie.collocation.PolynomialSolution` iterate of degree d
    is evaluated on a band as D @ U: U holds the reference powers u^r of
    the plan's midpoints, r <= d, and row k of D is c_hat @ S_k, with
    c_hat_l = c_l * T^l its coefficients in s/T and S_k the binomial
    shift of piece k.  U and the shifts are built at the first polynomial
    iterate and kept until one of another degree comes.  Every other
    iterate evaluates ``component_values`` on the abscissas.
    """

    def __init__(self, lin, times, cuts=None, panels=DEFAULT_PSI_PANELS,
                 frozen=None):
        self.lin = lin
        self.times = np.asarray(times, dtype=float)
        self._scale = float(lin.curves.horizon)
        self._power_table = None
        system = lin.system
        n_bands = lin.n_bands
        active = lin.nonlinear_equations
        if frozen is None:
            frozen = ((plan, kvs, avs) for plan, kvs, _, avs in self._plan(
                active, cuts, panels if cuts is None else HISTORY_PANELS))
        self._bands = [self._band(plan, kvs, avs, active[plan.band - 1])
                       for plan, kvs, avs in frozen
                       if active[plan.band - 1] and plan.abscissas.size]

        self._f_vals = np.vstack([
            np.broadcast_to(np.asarray(f(t=self.times), float),
                            self.times.shape)
            for f in system.rhs])
        self._fp0 = np.array([float(fp(t=0.0)) for fp in system.rhs_prime])
        self._k00, self._gx0_at0, _ = lin.origin_factors
        slopes = [float(lin.curves.alpha_prime(j, 0.0))
                  for j in range(n_bands + 1)]
        self._dslopes = np.diff(np.asarray(slopes))

    def _plan(self, active, cuts, panels):
        """``(plan, K, dG/dx, A)`` per band that has a pair with G not x.

        Every piece gets ``panels`` panels, so each plan is a (pieces,
        panels) block, and the outer times are passed as a column.  When
        every G is x, no band is planned and no curve is evaluated.
        """
        if not any(active):
            return
        lin = self.lin
        # with cuts, band edges within roundoff of a cut are moved onto it,
        # as the pc assembly moves them
        edges = quadrature.band_edges(self.times, lin.curves, snap=cuts)
        for pieces in quadrature.band_pieces(edges, cuts):
            if active[pieces.band - 1]:
                plan = quadrature.midpoint_plan(pieces, panels)
                yield (plan, *lin.frozen_factors(
                    plan.band, self.times[plan.piece_time, None],
                    plan.abscissas))

    def _band(self, plan, kvs, avs, equations):
        """One band: its (pieces, panels) rows of A and K per pair.

        A is copied here, after the set-up.  The temporaries of every call
        (the iterate and the G values on the plan) then reuse the freed
        original, which the allocator keeps mapped; without the copy they
        were mapped afresh at every call, about 80k minor page faults per
        colloc-sweep pass against about 10 with it.
        """
        shape = (plan.piece_time.size, -1)
        return _PsiBand(
            band=plan.band - 1,
            component=self.lin.unknown_of_band[plan.band - 1],
            piece_time=plan.piece_time, piece_width=plan.piece_width,
            piece_lo=plan.piece_lo, abscissas=plan.abscissas.reshape(-1),
            pairs=tuple((i, avs[i].reshape(shape).copy(),
                         kvs[i].reshape(shape)) for i in equations))

    def values(self, iterate):
        """Psi at the planned times for the given iterate; shape (n_eq, n_times)."""
        nonlinearities = self.lin.system.nonlinearities
        out = self._f_vals.copy()
        for band, xm in zip(self._bands, self._iterate_values(iterate)):
            band.add_to(out, xm, nonlinearities)
        return out

    def _iterate_values(self, iterate):
        """Per band, the iterate's component on the flat abscissas."""
        if not (self._bands and isinstance(iterate, PolynomialSolution)):
            return (np.asarray(iterate.component_values(
                band.component, band.abscissas), dtype=float)
                for band in self._bands)
        degree = iterate.degree
        # read and replaced whole, so runs sharing the evaluator with
        # iterates of other degrees never mix their tables and shifts
        kept = self._power_table
        if kept is None or kept[0] != degree:
            kept = (degree,
                    quadrature.reference_powers(self._bands[0].panels, degree),
                    [quadrature.power_shift(band.piece_lo,
                                            band.piece_width * band.panels,
                                            self._scale, degree)
                     for band in self._bands])
            self._power_table = kept
        _, table, shifts = kept
        scaled = iterate.coefficients * self._scale ** np.arange(degree + 1)
        return (((scaled[band.component - 1] @ shift) @ table).reshape(-1)
                for band, shift in zip(self._bands, shifts))

    def derivative_at_zero(self, iterate):
        """d(psi)/dt at t = 0: only the band boundary terms survive.

        As in :meth:`values`, a pair with G = x adds nothing (its bracket
        is 1 * xm0 - xm0 = 0 exactly), so only the pairs of
        :attr:`LinearizedSystem.nonlinear_equations` are evaluated.
        """
        lin = self.lin
        nonlinearities = lin.system.nonlinearities
        out = self._fp0.copy()
        for j, equations in enumerate(lin.nonlinear_equations):
            if not equations:
                continue
            xm0 = iterate.value_at_zero(lin.unknown_of_band[j])
            for i in equations:
                g0 = float(nonlinearities[i][j](s=0.0, x=xm0))
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
        segment for polynomial iterates and ``pc.HISTORY_PANELS`` per mesh
        piece for piecewise-constant ones, and both are summed per piece
        as w * (sum A * xm - sum K * G(xm)).  At the default, collocation
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
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if panels is not None and panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
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
