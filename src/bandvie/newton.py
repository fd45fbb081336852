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
segment cut at the mesh nodes.  Psi at the guess is summed on that plan
once.  Every later step takes an iterate of the inner solver, whose sum
A * xm, the frozen operator applied to it, comes from moments of A, and
sum K * G(xm) from moments of K where G allows; they are built at the
first such iterate, and from then on psi keeps the plan only for a G that
uses s or is not a polynomial.  A :class:`PsiEvaluator` serves one run,
which is sequential in the iteration index: it keeps per band a buffer
that a call fills before reading it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .collocation import (
    DEFAULT_MOMENT_PANELS,
    CollocationDiscretization,
    PolynomialSolution,
)
from .errors import DivergenceError, ProblemDefinitionError, SolverError
from .expr import polynomial_in_x
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


def _row_products(p, d):
    """Per row, the coefficients of the product of two polynomials.

    Rows of ``p`` and ``d`` hold coefficients, constant first; every row of
    ``p`` is convolved with the same row of ``d`` at once, by sliding a
    window of ``d``'s width over ``p`` padded with zeros.  The windows are
    gathered by an index array: numpy's ``sliding_window_view`` keeps a
    little memory per call that it never gives back.
    """
    width = d.shape[1]
    size = p.shape[1] + width - 1
    padded = np.zeros((p.shape[0], size + width - 1))
    padded[:, width - 1:width - 1 + p.shape[1]] = p
    windows = padded[:, np.add.outer(np.arange(size), np.arange(width))]
    return (windows * d[:, None, ::-1]).sum(axis=2)


def _composed(polynomial, powers):
    """Per row, the coefficients of G(D) for G with coefficients
    ``polynomial`` in x; ``powers`` holds D, D^2, ... and is extended as
    far as G needs."""
    while len(powers) < polynomial.size - 1:
        powers.append(_row_products(powers[-1], powers[0]))
    out = np.zeros((powers[0].shape[0],
                    (polynomial.size - 1) * (powers[0].shape[1] - 1) + 1))
    out[:, 0] = polynomial[0]
    for a, power in zip(polynomial[1:], powers):
        out[:, :power.shape[1]] += a * power
    return out


@dataclass(eq=False)
class _PsiBand:
    """One band of a psi plan that has a pair with G not x.

    Row p of every (n_pieces, panels) array is piece p of the plan: outer
    time ``piece_time[p]``, panel width ``piece_width[p]``, lower edge
    ``piece_lo[p]`` and, on a pc plan, cut at mesh nodes, 0-based mesh
    segment ``segment[p]`` (None otherwise); a time owns one piece on a
    collocation plan and several, consecutive, on a pc plan, and ``runs``
    holds the first piece of each time that owns one.  ``abscissas`` is
    the plan, flat, ``pairs`` holds (0-based equation, A = K * dG/dx(x0),
    K) for each equation whose G is not x, and ``polynomials`` per pair the
    coefficients of G in x (:func:`~bandvie.expr.polynomial_in_x`), or None
    for a G that uses s, is not a polynomial or has a degree of at least
    the panel count.

    The first solver iterate sets the rest (:meth:`keep_moments`): on a
    collocation plan the binomial ``shift`` of each piece, per pair
    ``moments`` (R = A @ table.T, the moments of K or None) and, for a
    pair with None, a ``buffer`` that takes the iterate on the plan.
    """

    band: int  # 0-based
    component: int  # 1-based
    panels: int
    piece_time: np.ndarray
    piece_width: np.ndarray
    piece_lo: np.ndarray
    segment: np.ndarray
    runs: np.ndarray
    abscissas: np.ndarray
    pairs: tuple
    polynomials: tuple
    shift: np.ndarray = None
    moments: list = None
    buffer: np.ndarray = None

    def add_on_plan(self, out, iterate, nonlinearities):
        """Add w * (sum A * xm - sum K * G(xm)) per piece, summed on the
        plan, for xm the ``iterate``."""
        xm = np.asarray(iterate.component_values(self.component,
                                                 self.abscissas), dtype=float)
        xm_rows = xm.reshape(-1, self.panels)
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

    def keep_moments(self, table, of_kernel, scale):
        """Keep per pair R = A @ table.T and the moments of K ``of_kernel``
        and, on a collocation plan, the shift to powers of s/``scale``; drop
        A, and K and the abscissas unless a pair has None (its K * G(xm) is
        summed on the plan, in ``buffer``)."""
        self.moments = [(frozen @ table.T, m)
                        for (_, frozen, _), m in zip(self.pairs, of_kernel)]
        if self.segment is None:
            self.shift = quadrature.power_shift(
                self.piece_lo, self.piece_width * self.panels, scale,
                table.shape[0] - 1)
        self.piece_lo = None
        self.pairs = tuple((i, None, kernel if m is None else None)
                           for (i, _, kernel), m in zip(self.pairs, of_kernel))
        if any(m is None for m in of_kernel):
            self.buffer = np.empty((self.piece_time.size, self.panels))
        else:
            self.abscissas = None

    def add_from_coefficients(self, out, coefficients, table,
                              nonlinearities):
        """Add w * (D_k . R_k - sum K * G(xm)) per piece.

        Row k of ``coefficients`` is the iterate on piece k in the
        reference powers ``table``.  Sum K * G(xm) is G(xm_k) times the
        row sums of K at degree 0, and G(D_k) . M_k at degree d, the
        powers D_k^n formed once per call for every pair; where a pair has
        no moments of K, it is summed on the plan, the iterate put there
        once per call, into :attr:`buffer`.
        """
        xm = None
        powers = [coefficients]
        for (i, _, kernel), polynomial, (linear, nonlinear) in zip(
                self.pairs, self.polynomials, self.moments):
            rows = np.einsum("kr,kr->k", coefficients, linear)
            g = nonlinearities[i][self.band]
            if nonlinear is None:
                if xm is None:
                    xm = np.matmul(coefficients, table,
                                   out=self.buffer).reshape(-1)
                rows -= self._nonlinear_rows(kernel, g, xm)
            elif coefficients.shape[1] == 1:
                rows -= np.broadcast_to(
                    g(x=coefficients[:, 0]), rows.shape) * nonlinear
            else:
                rows -= np.einsum("kr,kr->k", _composed(polynomial, powers),
                                  nonlinear)
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


def _described(iterate):
    """The class of ``iterate``, with its degree or its mesh if it has one."""
    name = type(iterate).__name__
    if isinstance(iterate, PolynomialSolution):
        return f"{name} of degree {iterate.degree}"
    if isinstance(iterate, PiecewiseConstantSolution):
        return f"{name} on a mesh of {iterate.mesh.n_segments} segments"
    return name


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
    plan over once.  An empty hand-off plans no band: psi is f, for any
    iterate.  psi_i(t_k) = f_i(t_k) + the sum over the pieces of t_k of w
    * (sum A_i * xm - sum K_i * G_i(xm)), w the piece's panel width.

    Per band with a pair whose G is not x the evaluator takes the plan, A,
    K and the coefficients of each G that is a polynomial in x
    (:class:`_PsiBand`).  On it, it sums psi at the linearization point
    ``lin.x0`` once, and ``values(lin.x0)`` returns a copy of that sum.
    Every other call takes an iterate of the inner solver, a polynomial on
    every piece, whose coefficients D_k in the reference powers give sum A
    * xm = D_k . R_k:

    * on a collocation plan a :class:`~bandvie.collocation.PolynomialSolution`
      of degree d, with D_k = c_hat @ S_k, c_hat_l = c_l * T^l its
      coefficients in s/T and S_k the binomial shift of piece k;
    * on a pc plan a :class:`~bandvie.pc.PiecewiseConstantSolution` on the
      mesh the plan was cut at, the mesh of nodes 0 and ``times``, of
      degree 0: D_k is its value on the segment of piece k.

    Its sum K * G(xm) is, per piece:

    * at degree 0 (a step iterate) and for a G free of s, G(xm_k) times
      the row sum of K: one G value per piece;
    * at degree d > 0 and for a G that is a polynomial of degree g in x
      with g * d below the panel count, G(D_k) . M_k: G(xm) is a
      polynomial of degree g * d on the piece, its coefficients G(D_k)
      are formed from the powers D_k^n (row convolutions, once per band
      and call), and M = K @ U.T holds the moments of K over the
      reference powers U up to g * d.  It is the plan's midpoint sum in
      another rounding order, and no G is evaluated;
    * otherwise (a G with s, or not a polynomial) the sum on the plan of K
      * G(xm), the iterate put there as D @ table, in a buffer kept per
      band.

    The first solver iterate sets the degree; the reference powers, the
    shifts and the moments R = A @ table.T and of K are built then, once,
    and A goes, with K and the abscissas of every pair whose G term comes
    from moments.  An iterate of another kind, of a second degree or on
    another mesh raises :class:`SolverError`.
    """

    def __init__(self, lin, times, frozen):
        self.lin = lin
        self.times = np.asarray(times, dtype=float)
        self._scale = float(lin.curves.horizon)
        # the first solver iterate's degree and reference powers up to it
        self._degree = self._table = None
        active = lin.nonlinear_equations
        self._bands = [self._band(active[entry[0].band - 1], *entry)
                       for entry in frozen if active[entry[0].band - 1]
                       and entry[0].abscissas.size]

        self._f_vals, self._fp0 = f_at_times(lin.system, self.times)
        self._k00, self._gx0_at0, _ = lin.origin_factors
        slopes = [float(lin.curves.alpha_prime(j, 0.0))
                  for j in range(lin.n_bands + 1)]
        self._dslopes = np.diff(np.asarray(slopes))
        self._at_x0 = self._f_vals.copy()
        for band in self._bands:
            band.add_on_plan(self._at_x0, lin.x0, lin.system.nonlinearities)

    def _band(self, equations, plan, kvs, avs, segment=None):
        """One band: its (pieces, panels) rows of A and K per pair; a pc
        plan comes with the 0-based mesh ``segment`` of each piece."""
        shape = plan.abscissas.shape
        nonlinearities = self.lin.system.nonlinearities
        # a G of degree >= panels would be summed on the plan at every
        # degree d >= 1 (see _kernel_moments)
        polynomials = tuple(
            polynomial_in_x(nonlinearities[i][plan.band - 1], shape[1] - 1)
            for i in equations)
        return _PsiBand(
            band=plan.band - 1,
            component=self.lin.unknown_of_band[plan.band - 1],
            panels=shape[1],
            piece_time=plan.piece_time, piece_width=plan.piece_width,
            piece_lo=plan.piece_lo, segment=segment,
            runs=np.flatnonzero(np.diff(plan.piece_time, prepend=-1)),
            abscissas=plan.abscissas.reshape(-1),
            pairs=tuple((i, avs[i].reshape(shape), kvs[i].reshape(shape))
                        for i in equations),
            polynomials=polynomials)

    def values(self, iterate):
        """Psi at the planned times, shape (n_eq, n_times), for ``lin.x0``
        or an iterate of the inner solver that built the plan."""
        if iterate is self.lin.x0 or not self._bands:
            return self._at_x0.copy()
        out = self._f_vals.copy()
        nonlinearities = self.lin.system.nonlinearities
        for band, d in zip(self._bands, self._piece_coefficients(iterate)):
            band.add_from_coefficients(out, d, self._table, nonlinearities)
        return out

    def _piece_coefficients(self, iterate):
        """Per band the iterate's coefficients D_k on every piece; the
        first call sets the degree (:meth:`_keep_moments`).  An iterate
        the plan's solver does not make (a polynomial on a collocation
        plan, of the degree of the first, or steps on the mesh of a pc
        plan) raises :class:`SolverError`."""
        on_mesh = self._bands[0].segment is not None
        if on_mesh:
            # a pc plan is cut at the mesh of nodes 0 and the times
            served = (isinstance(iterate, PiecewiseConstantSolution)
                      and np.array_equal(iterate.mesh.nodes[1:], self.times))
            degree = 0
        else:
            served = isinstance(iterate, PolynomialSolution)
            degree = iterate.degree if served else None
        if not served or self._degree not in (None, degree):
            wanted = (f"steps on its mesh of {self.times.size} segments"
                      if on_mesh else "a polynomial" if self._degree is None
                      else f"a polynomial of degree {self._degree}")
            raise SolverError(
                f"psi takes the linearization point or {wanted}, got "
                f"{_described(iterate)}")
        if self._degree is None:
            self._keep_moments(degree)
        if on_mesh:
            return [iterate.values[band.component - 1][band.segment, None]
                    for band in self._bands]
        scaled = iterate.coefficients * self._scale ** np.arange(degree + 1)
        return [scaled[band.component - 1] @ band.shift
                for band in self._bands]

    def _keep_moments(self, degree):
        """Set the degree and build its table and moments, once: of K
        the row sums at degree 0 for a G free of s, at d > 0 those of
        :meth:`_kernel_moments`, and None for a pair summed on the plan."""
        self._degree = degree
        self._table = table = quadrature.reference_powers(
            self._bands[0].panels, degree)
        if degree:
            of_kernel = self._kernel_moments(degree, table)
        else:
            nonlinearities = self.lin.system.nonlinearities
            of_kernel = [[kernel.sum(axis=1) if "s" not in nonlinearities[
                i][band.band].free_variables else None
                for i, _, kernel in band.pairs] for band in self._bands]
        for band, of_band in zip(self._bands, of_kernel):
            band.keep_moments(table, of_band, self._scale)

    def _kernel_moments(self, degree, table):
        """Per band and pair, M = K @ U.T for a G that is a polynomial of
        degree g with g * d below the panel count (its moments are then
        fewer numbers than the plan's), U the reference powers up to g * d;
        None for every other pair.

        U is formed d + 1 powers at a time, each block the block before
        times u^(d+1), in place, and shared by every pair, so besides
        ``table`` one block of its size is alive.
        """
        panels = table.shape[1]
        widths = [[None if p is None or (p.size - 1) * degree >= panels
                   else (p.size - 1) * degree + 1 for p in band.polynomials]
                  for band in self._bands]
        out = [[None if w is None else np.empty((band.piece_time.size, w))
                for w in band_widths]
               for band, band_widths in zip(self._bands, widths)]
        top = max((w for band_widths in widths for w in band_widths
                   if w is not None), default=0)
        block, step = table, table[degree] * table[1]
        for start in range(0, top, degree + 1):
            if start == degree + 1:
                block = block * step    # the first block is ``table``
            elif start:
                block *= step
            for band, band_widths, band_out in zip(self._bands, widths, out):
                for (_, _, kernel), w, m in zip(band.pairs, band_widths,
                                                band_out):
                    if w is not None and w > start:
                        stop = min(w, start + degree + 1)
                        m[:, start:stop] = kernel @ block[:stop - start].T
        return out

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
    # psi sums the guess on the handed-over plan; what it keeps of the plan
    # after its first solver iterate is only what later calls read
    evaluator = PsiEvaluator(lin, disc.times, disc.take_frozen_plan())

    report = IterationReport()
    current = lin.x0
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
