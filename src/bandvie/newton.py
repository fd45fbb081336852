"""Outer iteration: frozen-derivative Newton steps in function space.

The integral operator is linearized once, at the initial guess, and the
same discretized linear operator is solved at every step; only the
right-hand side

    psi_i(t) = f_i(t) + sum_j integral K_ij(t,s) *
               [ dG_ij/dx(s, x0_j(s)) * xm_j(s) - G_ij(s, xm_j(s)) ] ds

is rebuilt from the current iterate xm.  (Writing the step for the new
iterate rather than the correction puts the bracket on the right with the
sign above; with it, the exact solution is a fixed point.)  Each step hands
the inner solver plain arrays: psi at the solver's ``times``, shape
(n_eq, n_times), and d(psi)/dt at 0, shape (n_eq,).

A pair with G_ij = x adds nothing to psi (for a finite iterate its bracket
is 1 * xm - xm = 0 exactly), so the evaluator skips it
(:attr:`LinearizedSystem.nonlinear_equations`).

Psi is summed per piece of a band plan, w * (sum A * xm - sum K *
G(xm)) with A = K * dG/dx(x0) the frozen kernel (:class:`PsiEvaluator`).
Each inner solver builds one plan, evaluates the frozen kernel on it and
hands both to psi, which plans nothing of its own: collocation the plan of
its moments, at any panel count, pc the one plan of its steps, each band
segment cut at the mesh nodes.  Since the derivative is frozen, sum
A * xm is the frozen operator applied to the iterate, taken from moments
of A for an iterate that is a polynomial on every piece (collocation and
pc iterates); only the guess, an expression iterate, is summed on the
plan.

One run is sequential in the iteration index.  A :class:`PsiEvaluator`
keeps between calls the moments of the last degree it was given, which
depend on the plan and that degree alone, and per band a buffer that a
call fills before reading it; so runs may share an evaluator one after
another, as they share the immutable problem data, but not at once.
"""

from __future__ import annotations

import functools
import math
import numbers
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
from .pc import Mesh, PCDiscretization, PiecewiseConstantSolution
from .problem import f_at_times, linearize, validate
from .report import measure_errors

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
    ``piece_lo[p]`` and, on a pc plan, cut at mesh nodes, 0-based mesh
    segment ``segment[p]`` (None otherwise); a time owns one piece on a
    collocation plan and several, consecutive, on a pc plan, and ``runs``
    holds the first piece of each time that owns one.  ``abscissas`` is
    the plan, flat, ``pairs`` holds (0-based equation, A = K * dG/dx(x0),
    K) for each equation whose G is not x, and ``buffer`` takes a
    polynomial iterate on the plan when a call needs it there.
    """

    band: int  # 0-based
    component: int  # 1-based
    piece_time: np.ndarray
    piece_width: np.ndarray
    piece_lo: np.ndarray
    segment: np.ndarray
    runs: np.ndarray
    abscissas: np.ndarray
    pairs: tuple
    buffer: np.ndarray

    @property
    def panels(self):
        return self.buffer.shape[1]

    def add_on_plan(self, out, xm, nonlinearities):
        """Add w * (sum A * xm - sum K * G(xm)) per piece, xm on the plan."""
        xm_rows = xm.reshape(self.buffer.shape)
        for i, frozen, kernel in self.pairs:
            # einsum runs its own loop: a BLAS product would make the last
            # bits depend on the BLAS build and thread count
            rows = np.einsum("kp,kp->k", frozen, xm_rows)
            rows -= self._nonlinear_rows(kernel, nonlinearities[i][self.band],
                                         xm)
            rows *= self.piece_width
            # on a pc plan a time owns several pieces: add.at adds repeated
            # times one by one, in plan order
            np.add.at(out[i], self.piece_time, rows)

    def add_from_coefficients(self, out, coefficients, table, moments,
                              nonlinearities):
        """Add w * (D_k . R_k - sum K * G(xm)) per piece.

        Row k of ``coefficients`` is the iterate on piece k in the
        reference powers ``table``, and ``moments`` holds per pair R = A @
        table.T and, at degree 0 and for a G free of s, the row sums of K,
        so sum K * G(xm) is G(xm) times them.  Otherwise the iterate is put
        on the plan, once per call, into ``buffer``.
        """
        xm = None
        for (i, _, kernel), (linear, kernel_sums) in zip(self.pairs, moments):
            rows = np.einsum("kr,kr->k", coefficients, linear)
            g = nonlinearities[i][self.band]
            if kernel_sums is not None:
                rows -= np.broadcast_to(
                    g(x=coefficients[:, 0]), rows.shape) * kernel_sums
            else:
                if xm is None:
                    xm = np.matmul(coefficients, table,
                                   out=self.buffer).reshape(-1)
                rows -= self._nonlinear_rows(kernel, g, xm)
            rows *= self.piece_width
            # the pieces of a time are summed (pairwise) before f is added:
            # on pc iterates this rounds about 3x closer to an exact sum
            # than adding them to f one by one
            out[i, self.piece_time[self.runs]] += np.add.reduceat(
                rows, self.runs)

    def _nonlinear_rows(self, kernel, g, xm):
        """Per piece, sum K * G(xm) over the plan."""
        gm = np.broadcast_to(g(s=self.abscissas, x=xm), xm.shape)
        return np.einsum("kp,kp->k", kernel, gm.reshape(kernel.shape))


class _Moments(NamedTuple):
    """What psi keeps for the iterates of one degree d.

    ``table`` holds the reference powers u^r, r <= d, of the plan
    (:func:`quadrature.reference_powers`); per band, ``shifts`` holds the
    binomial shifts of its pieces (None at d = 0, where the shift is 1)
    and ``moments`` per pair (R = A @ table.T, the row sums of K or None).
    The row sums are kept at d = 0 for a G free of s only.
    """

    degree: int
    table: np.ndarray
    shifts: list
    moments: list


class PsiEvaluator:
    """Right-hand-side evaluator on the quadrature plan of the inner solver.

    ``times`` are the inner solver's ``times``, where its ``solve`` takes
    psi, and ``frozen`` holds the band plans it built over them, with K
    and A = K * dG/dx(x0) on them (its ``take_frozen_plan``); the
    evaluator plans and evaluates no kernel itself.  A
    :class:`~bandvie.collocation.CollocationDiscretization` hands over its
    moment plans, one piece per time, and a
    :class:`~bandvie.pc.PCDiscretization`, over its mesh nodes t_1..t_N,
    the plans its steps were summed on: each band segment cut at the
    nodes into pieces of ``pc.PIECE_PANELS`` panels, unknown ranges and
    history alike, each with its mesh segment.  A discretization hands its
    plan over once.  An empty hand-off plans no band: psi is f.
    psi_i(t_k) = f_i(t_k) + the sum over the pieces of t_k of w * (sum
    A_i * xm - sum K_i * G_i(xm)), w the piece's panel width.

    The plan only depends on the linearized system and the evaluation
    times, so one evaluator serves every outer iteration.  Per band with a
    pair whose G is not x it keeps the abscissas, A and K
    (:class:`_PsiBand`), and for the iterates of the last degree d it was
    given the table of reference powers, the shifts and the moments R = A
    @ table.T (:class:`_Moments`).  A band where every G is x is not
    evaluated.

    An iterate that is a polynomial on every piece gives per piece its
    coefficients D_k in the reference powers, and sum A * xm is D_k . R_k:

    * a :class:`~bandvie.collocation.PolynomialSolution` of degree d has
      D_k = c_hat @ S_k, with c_hat_l = c_l * T^l its coefficients in s/T
      and S_k the binomial shift of piece k;
    * a :class:`~bandvie.pc.PiecewiseConstantSolution` on the mesh a pc
      plan was cut at, the mesh of nodes 0 and ``times``, has degree 0:
      D_k is its value on the segment of piece k.

    Its sum K * G(xm) is G(xm_k) times the row sum of K at degree 0 (a
    step iterate) and a G free of s, one G value per piece; otherwise the
    iterate is put on the plan as D @ table, in a buffer kept per band,
    and K * G(xm) is summed there.  Every other iterate (the guess)
    evaluates ``component_values`` on the abscissas and sums both terms
    on the plan.
    """

    def __init__(self, lin, times, frozen):
        self.lin = lin
        self.times = np.asarray(times, dtype=float)
        self._scale = float(lin.curves.horizon)
        self._moments = None
        active = lin.nonlinear_equations
        self._bands = [self._band(active[entry[0].band - 1], *entry)
                       for entry in frozen if active[entry[0].band - 1]
                       and entry[0].abscissas.size]

        self._f_vals, self._fp0 = f_at_times(lin.system, self.times)
        self._k00, self._gx0_at0, _ = lin.origin_factors
        slopes = [float(lin.curves.alpha_prime(j, 0.0))
                  for j in range(lin.n_bands + 1)]
        self._dslopes = np.diff(np.asarray(slopes))

    def _band(self, equations, plan, kvs, avs, segment=None):
        """One band: its (pieces, panels) rows of A and K per pair; a pc
        plan comes with the 0-based mesh ``segment`` of each piece."""
        shape = plan.abscissas.shape
        return _PsiBand(
            band=plan.band - 1,
            component=self.lin.unknown_of_band[plan.band - 1],
            piece_time=plan.piece_time, piece_width=plan.piece_width,
            piece_lo=plan.piece_lo, segment=segment,
            runs=np.flatnonzero(np.diff(plan.piece_time, prepend=-1)),
            abscissas=plan.abscissas.reshape(-1),
            pairs=tuple((i, avs[i].reshape(shape), kvs[i].reshape(shape))
                        for i in equations),
            buffer=np.empty(shape))

    def values(self, iterate):
        """Psi at the planned times for the given iterate; shape (n_eq, n_times)."""
        nonlinearities = self.lin.system.nonlinearities
        out = self._f_vals.copy()
        kept, coefficients = self._piece_coefficients(iterate)
        if coefficients is None:
            for band in self._bands:
                band.add_on_plan(out, np.asarray(iterate.component_values(
                    band.component, band.abscissas), dtype=float),
                    nonlinearities)
            return out
        for band, d, moments in zip(self._bands, coefficients, kept.moments):
            band.add_from_coefficients(out, d, kept.table, moments,
                                       nonlinearities)
        return out

    def _piece_coefficients(self, iterate):
        """The :class:`_Moments` of the iterate's degree and per band its D_k.

        ``(None, None)`` for an iterate that is not a polynomial on every
        piece of the plan, and when nothing is planned.
        """
        if not self._bands:
            return None, None
        if isinstance(iterate, PolynomialSolution):
            degree = iterate.degree
            kept = self._moments_of(degree)
            scaled = iterate.coefficients * self._scale ** np.arange(
                degree + 1)
            if not degree:
                return kept, [np.full((band.piece_time.size, 1),
                                      scaled[band.component - 1, 0])
                              for band in self._bands]
            return kept, [scaled[band.component - 1] @ shift
                          for band, shift in zip(self._bands, kept.shifts)]
        if (isinstance(iterate, PiecewiseConstantSolution)
                and self._bands[0].segment is not None
                # a pc plan is cut at the mesh of nodes 0 and the times
                and np.array_equal(iterate.mesh.nodes[1:], self.times)):
            return self._moments_of(0), [
                iterate.values[band.component - 1][band.segment, None]
                for band in self._bands]
        return None, None

    def _moments_of(self, degree):
        """The :class:`_Moments` of ``degree``, built once and kept.

        Read and replaced whole, so runs sharing the evaluator with
        iterates of other degrees never mix their tables and moments.
        """
        kept = self._moments
        if kept is not None and kept.degree == degree:
            return kept
        nonlinearities = self.lin.system.nonlinearities
        table = quadrature.reference_powers(self._bands[0].panels, degree)
        shifts = [quadrature.power_shift(band.piece_lo,
                                         band.piece_width * band.panels,
                                         self._scale, degree)
                  for band in self._bands] if degree else None
        moments = [[(frozen @ table.T,
                     kernel.sum(axis=1) if not degree and "s" not in
                     nonlinearities[i][band.band].free_variables else None)
                    for i, frozen, kernel in band.pairs]
                   for band in self._bands]
        self._moments = kept = _Moments(degree, table, shifts, moments)
        return kept

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
    panels : collocation only: panels per band segment of the moment plan,
        which psi sums on too (pc sums on its ``pc.PIECE_PANELS`` pieces)

    Returns
    -------
    (solution, IterationReport)

    Raises
    ------
    ValueError
        If a number is unusable, or a method misses the parameter it needs
        or is given one it does not take; the argument is named.
    DivergenceError
        If the correction norm grows by more than a factor of 1e3 over
        three consecutive iterations; the partial report is attached.
    """
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not (math.isfinite(tol) and tol > 0)):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    quadrature.checked_count("max_iters", max_iters)
    # per method, the parameter it needs, then one it takes optionally
    own = {"pc": ("n_segments",),
           "collocation": ("degree", "panels")}.get(method)
    if own is None:
        raise ValueError(f"unknown inner method {method!r}")
    # degree, n_segments and panels are checked where they are used
    for name, value in (("degree", degree), ("n_segments", n_segments),
                        ("panels", panels)):
        if name == own[0] and value is None:
            raise ValueError(f"the {method} method needs {name}")
        if name not in own and value is not None:
            raise ValueError(
                f"the {method} method takes no {name}, got {value!r}")
    if not skip_validation:
        diagnostics = validate(system)
        if diagnostics:
            raise ProblemDefinitionError(
                "system failed validation: "
                + "; ".join(str(d) for d in diagnostics))

    lin = linearize(system)
    if method == "pc":
        disc = PCDiscretization(
            lin, Mesh.uniform(system.curves.horizon, n_segments))
    else:
        disc = CollocationDiscretization(
            lin, degree,
            panels=DEFAULT_MOMENT_PANELS if panels is None else panels)
    # what psi does not keep of the handed-over plan is freed here
    evaluator = PsiEvaluator(lin, disc.times, disc.take_frozen_plan())

    report = IterationReport()
    current = system.guess_iterate()
    prev_correction = None
    solution = None
    for step in range(1, max_iters + 1):
        solution = disc.solve(evaluator.values(current),
                              evaluator.derivative_at_zero(current))
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
