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
Each inner solver builds one plan and forms the frozen kernel on it in
one pass (:meth:`LinearizedSystem.frozen_pairs`), which also sums psi at
the guess per piece; it hands psi the plan, K, those sums and the
moments of A it took, but not A, so psi plans and evaluates nothing of
its own: collocation the plan of its moments, at any panel count, pc the
one plan of its steps, each band segment cut at the mesh nodes.  Every
later step takes an iterate of the inner solver, whose sum A * xm, the
frozen operator applied to it, comes from those moments, and sum K *
G(xm), where G allows, from weights of K at the Chebyshev points that
interpolate G(xm) exactly; they are built at the first such iterate, and
from then on psi keeps K and the plan only for a G that uses s or is not
a polynomial.  A :class:`PsiEvaluator` serves one run, which is
sequential in the iteration index: it keeps per band a buffer that a
call fills before reading it.

A step costs psi, the inner solve and the correction norm.  The step's
:class:`IterationRecord` keeps its iterate; the errors against a known
exact solution are measured only when a record's are first read.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .collocation import CollocationDiscretization, PolynomialSolution
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
    """One outer step: its correction norm and the ``iterate`` it made.

    The errors of the iterate against the exact solution of ``system``
    are measured on first read, by
    :func:`~bandvie.report.measure_errors`, and kept: the iteration itself
    reads none of them, and a caller that reads only the last record's
    pays for one measurement.  Without an exact solution they read ``()``
    and None.
    """

    index: int
    correction: float
    ratio: float = None              # correction / previous correction
    iterate: object = field(default=None, repr=False)
    system: object = field(default=None, repr=False)

    @functools.cached_property
    def _errors(self):
        if self.system is None or self.system.exact is None:
            return (), None
        return measure_errors(self.iterate, self.system)

    @property
    def component_errors(self):
        """Per component :class:`~bandvie.report.ComponentError`."""
        return self._errors[0]

    @property
    def aggregate_error(self):
        """Euclidean norm of the component sup errors."""
        return self._errors[1]


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

    The values are kept on the iterate, keyed by component and domain,
    until :func:`correction_norm` has read them as the previous iterate's:
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
    they are built.  Once read, the samples of ``prev`` are dropped: an
    outer iteration never reads them again, and the records of a run keep
    their iterates.

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
    vars(prev).pop("_norm_samples", None)
    return worst


def _chebyshev(n, degree):
    """V and C of the n Chebyshev points v_j of [0, 1]: V[r, j] = v_j^r
    for r <= ``degree``, and C[r, j] = (2/n) T_r(2 v_j - 1), row 0
    halved, so that column j of C holds the coefficients in T_r(2u - 1)
    of the Lagrange polynomial of v_j."""
    angles = np.pi * (np.arange(n) + 0.5) / n
    c = np.cos(np.outer(np.arange(n), angles)) * (2.0 / n)
    c[0] /= 2.0
    return np.power.outer((1.0 + np.cos(angles)) / 2.0,
                          np.arange(degree + 1)).T, c


def _chebyshev_rows(panels, count, size):
    """Yield (r0, rows): T_r(2u - 1) for r0 <= r < r0 + ``size``, r <
    ``count``, on the reference midpoints u of ``panels``, by the
    three-term recurrence; every block is in one buffer, after the last
    two rows of the block before (``size`` >= 2)."""
    twice = (4.0 * np.arange(panels) + 2.0) / panels - 2.0
    buffer = np.empty((size + 2, panels))
    for start in range(0, count, size):
        if not start:
            buffer[2], buffer[3] = 1.0, twice / 2.0
        stop = min(count, start + size) - start + 2
        for at in range(2 if start else 4, stop):
            np.multiply(twice, buffer[at - 1], out=buffer[at])
            buffer[at] -= buffer[at - 2]
        yield start, buffer[2:stop]
        buffer[:2] = buffer[stop - 2:stop]


def _points(g, degree, panels):
    """The n Chebyshev points that interpolate G(xm) exactly for an
    iterate of ``degree``: 1 at degree 0 for a G free of s, g * d + 1 at
    d > 0 for a G that is a polynomial of degree g in x, if that is at
    most ``panels``; None otherwise (summed on the plan)."""
    if not degree:
        return None if "s" in g.free_variables else 1
    polynomial = polynomial_in_x(g, (panels - 1) // degree)
    return None if polynomial is None else (polynomial.size - 1) * degree + 1


@dataclass(eq=False)
class _PsiBand:
    """One band of a psi plan that has a pair with G not x.

    Row p of every (n_pieces, panels) array is piece p of the plan: outer
    time ``piece_time[p]``, panel width ``piece_width[p]`` and, on a pc
    plan, 0-based mesh segment ``segment[p]`` (None otherwise); a time
    owns one piece on a collocation plan and several, consecutive, on a pc
    plan, and ``runs`` holds the first piece of each time that owns one.
    ``pairs`` holds (0-based equation, K) for each equation whose G is
    not x, ``moments`` per pair R and ``points`` its n (:func:`_points`);
    ``shift`` is the hand-off's.  ``abscissas`` is the plan, flat, formed
    only for a band with a pair summed on it (n None), else None.  The
    first solver iterate sets per pair the ``weights`` of K, and a
    ``buffer`` for a band with a pair summed on the plan, and the times of
    the runs, ``run_time``, which replace ``piece_time``
    (:meth:`keep_weights`).
    """

    band: int  # 0-based
    component: int  # 1-based
    panels: int
    piece_time: np.ndarray
    piece_width: np.ndarray
    segment: np.ndarray
    runs: np.ndarray
    abscissas: np.ndarray
    pairs: tuple
    moments: list
    shift: np.ndarray
    points: tuple
    run_time: np.ndarray = None
    weights: list = None
    buffer: np.ndarray = None

    def keep_weights(self, weights):
        """Keep the ``weights`` of K per pair and the times of the runs;
        drop the piece times, and K unless a pair has None (its K * G(xm)
        is summed on the plan, in ``buffer``)."""
        self.weights = weights
        self.run_time = self.piece_time[self.runs]
        self.piece_time = None
        self.pairs = tuple((i, kernel if w is None else None)
                           for (i, kernel), w in zip(self.pairs, weights))
        if self.abscissas is not None:
            self.buffer = np.empty((self.piece_width.size, self.panels))

    def add_from_coefficients(self, out, coefficients, nodes, table,
                              nonlinearities):
        """Add w * (D_k . R_k - sum K * G(xm)) per piece.

        Row k of ``coefficients`` is the iterate on piece k in the
        reference powers ``table``.  Sum K * G(xm) is W_k . G(D_k(v)), the
        iterate at the n Chebyshev points, D_k @ ``nodes[n]``, formed once
        per call for every pair of n points, and G(D_k0) times the row sums
        W_k of K for n = 1 (a step iterate, or a G constant in x); where a
        pair has no weights, it is summed on the plan, the iterate put
        there once per call, into :attr:`buffer`.
        """
        xm, at_points = None, {}
        for (i, kernel), linear, n, weights in zip(
                self.pairs, self.moments, self.points, self.weights):
            rows = np.einsum("kr,kr->k", coefficients, linear)
            g = nonlinearities[i][self.band]
            if weights is None:
                if xm is None:
                    xm = np.matmul(coefficients, table,
                                   out=self.buffer).reshape(-1)
                rows -= self._nonlinear_rows(kernel, g, xm)
            elif n == 1:
                rows -= g(x=coefficients[:, 0]) * weights
            else:
                x = at_points.get(n)
                if x is None:
                    x = at_points[n] = coefficients @ nodes[n]
                # a row adds in the same (pairwise) order as it would alone
                rows -= (weights * g(x=x)).sum(axis=1)
            rows *= self.piece_width
            if self.runs.size == rows.size:
                # one piece per time, as on a collocation plan
                out[i, self.run_time] += rows
            else:
                # the pieces of a time are summed (pairwise) before f is
                # added: on pc iterates this rounds about 3x closer to an
                # exact sum than adding them to f one by one
                out[i, self.run_time] += np.add.reduceat(rows, self.runs)

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
    psi, and ``frozen`` holds the :class:`~bandvie.problem.FrozenBand`
    plans it built over them (its ``take_frozen_plan``), once; the
    evaluator plans and evaluates no kernel itself.  A
    :class:`~bandvie.collocation.CollocationDiscretization` hands over its
    moment plans, one piece per time, and a
    :class:`~bandvie.pc.PCDiscretization`, over its mesh nodes t_1..t_N,
    the plans its steps were summed on: each band segment cut at the
    nodes into pieces of ``pc.PIECE_PANELS`` panels.  An empty hand-off
    plans no band: psi is f, for any iterate.  psi_i(t_k) = f_i(t_k) + the
    sum over the pieces of t_k of w * (sum A_i * xm - sum K_i * G_i(xm)),
    w the piece's panel width.

    Per band with a pair whose G is not x the evaluator takes the plan, K
    and R = A @ table.T (:class:`_PsiBand`), and the solver's per-piece
    sums at the linearization point ``lin.x0``, which it adds into f
    once; ``values(lin.x0)`` returns a copy of that sum.  Every other call
    takes an iterate of the inner solver, of the degree d of R on every
    piece, whose coefficients D_k in the reference powers give sum A * xm
    = D_k . R_k: a :class:`~bandvie.collocation.PolynomialSolution` on a
    collocation plan, D_k = c_hat @ S_k with c_hat_l = c_l * T^l and S_k
    the shift of piece k, or a :class:`~bandvie.pc.PiecewiseConstantSolution`
    on the mesh a pc plan was cut at, D_k its value on the segment of
    piece k (d = 0).

    Where G(xm) is a polynomial of degree n - 1 < panels on every piece
    (:func:`_points`: n = 1 at d = 0 for a G free of s, n = g * d + 1 for
    a G that is a polynomial of degree g in x), sum K * G(xm) is W_k .
    G(D_k(v)): the iterate at the n Chebyshev points v_j of [0, 1], G once
    on that (pieces, n) block, and W = (K @ T.T) @ C with T_r(2u - 1) on
    the reference midpoints u and C the coefficients of the Lagrange basis
    on the v_j.  Interpolation at n points is exact for G(xm), so this is
    the plan's midpoint sum in another rounding order.  Every other pair
    (a G with s, or not a polynomial) is summed on the plan, the iterate
    put there as D @ table, in a buffer kept per band; only such a band
    forms the plan's abscissas.  The weights are built at the first solver
    iterate, and K goes then for every pair with weights.  An iterate of
    another kind, of another degree or on another mesh raises
    :class:`SolverError`.
    """

    def __init__(self, lin, times, frozen):
        self.lin = lin
        self.times = np.asarray(times, dtype=float)
        self._scale = float(lin.curves.horizon)
        active = lin.nonlinear_equations
        frozen = [entry for entry in frozen if active[entry.plan.band - 1]
                  and entry.plan.piece_width.size]
        self._bands = [self._band(active[entry.plan.band - 1], entry)
                       for entry in frozen]
        # the degree of the solver's iterates, and per n > 1 the nodes V of
        # the n Chebyshev points (built at its first iterate)
        self._degree = (self._bands[0].moments[0].shape[1] - 1
                        if self._bands else None)
        self._nodes = self._table = None

        self._f_vals, self._fp0 = f_at_times(lin.system, self.times)
        self._origin = self._origin_pairs()
        self._at_x0 = self._f_vals.copy()
        for entry in frozen:
            plan = entry.plan
            for i in active[plan.band - 1]:
                # on a pc plan a time owns several pieces: add.at adds
                # repeated times one by one, in plan order
                np.add.at(self._at_x0[i], plan.piece_time,
                          entry.guess[i] * plan.piece_width)

    def _band(self, equations, entry):
        """One band: its K per pair, and the plan if a pair is summed on
        it."""
        plan = entry.plan
        degree = entry.moments[equations[0]].shape[1] - 1
        nonlinearities = self.lin.system.nonlinearities
        points = tuple(_points(nonlinearities[i][plan.band - 1], degree,
                               plan.panels) for i in equations)
        return _PsiBand(
            band=plan.band - 1,
            component=self.lin.unknown_of_band[plan.band - 1],
            panels=plan.panels,
            piece_time=plan.piece_time, piece_width=plan.piece_width,
            segment=entry.segment,
            runs=np.flatnonzero(np.diff(plan.piece_time, prepend=-1)),
            abscissas=(plan.abscissas.reshape(-1) if None in points
                       else None),
            pairs=tuple((i, entry.kernel[i]) for i in equations),
            moments=[entry.moments[i] for i in equations],
            shift=entry.shift, points=points)

    def values(self, iterate):
        """Psi at the planned times, shape (n_eq, n_times), for ``lin.x0``
        or an iterate of the inner solver that built the plan."""
        if iterate is self.lin.x0 or not self._bands:
            return self._at_x0.copy()
        coefficients = self._piece_coefficients(iterate)
        if self._nodes is None:
            self._keep_weights()
        out = self._f_vals.copy()
        nonlinearities = self.lin.system.nonlinearities
        for band, d in zip(self._bands, coefficients):
            band.add_from_coefficients(out, d, self._nodes, self._table,
                                       nonlinearities)
        return out

    def _piece_coefficients(self, iterate):
        """Per band the iterate's coefficients D_k on every piece.  An
        iterate the plan's solver does not make (a polynomial of the
        degree of R on a collocation plan, or steps on the mesh of a pc
        plan, cut at nodes 0 and the times) raises :class:`SolverError`."""
        degree, on_mesh = self._degree, self._bands[0].segment is not None
        if on_mesh and isinstance(iterate, PiecewiseConstantSolution) \
                and np.array_equal(iterate.mesh.nodes[1:], self.times):
            return [iterate.values[band.component - 1][band.segment, None]
                    for band in self._bands]
        if not on_mesh and isinstance(iterate, PolynomialSolution) \
                and iterate.degree == degree:
            scaled = iterate.coefficients * self._scale ** np.arange(
                degree + 1)
            return [scaled[band.component - 1] @ band.shift
                    for band in self._bands]
        wanted = (f"steps on its mesh of {self.times.size} segments"
                  if on_mesh else f"a polynomial of degree {degree}")
        raise SolverError(f"psi takes the linearization point or {wanted}, "
                          f"got {_described(iterate)}")

    def _keep_weights(self):
        """Build, once, per pair its weights: W = (K @ T.T) @ C for n > 1
        points, T the rows T_r(2u - 1), r < n, on the reference midpoints
        (:func:`_chebyshev_rows`) and C of :func:`_chebyshev`, the row sums
        of K for n = 1, and None for a pair summed on the plan; with the
        nodes V of each n > 1 and the reference powers that pair needs."""
        degree = self._degree
        chebyshev = {n: _chebyshev(n, degree) for band in self._bands
                     for n in band.points if (n or 0) > 1}
        self._nodes = {n: v for n, (v, _) in chebyshev.items()}
        if None in (n for band in self._bands for n in band.points):
            self._table = quadrature.reference_powers(self._bands[0].panels,
                                                      degree)
        products = [[np.empty((kernel.shape[0], n)) if (n or 0) > 1 else None
                     for (_, kernel), n in zip(band.pairs, band.points)]
                    for band in self._bands]
        top = max(chebyshev, default=0)
        for start, rows in _chebyshev_rows(self._bands[0].panels, top,
                                           degree + 1):
            for band, of_band in zip(self._bands, products):
                for (_, kernel), kt in zip(band.pairs, of_band):
                    if kt is not None and kt.shape[1] > start:
                        kt[:, start:start + rows.shape[0]] = (
                            kernel @ rows[:kt.shape[1] - start].T)
        for band, of_band in zip(self._bands, products):
            band.keep_weights([
                None if n is None else kernel.sum(axis=1)
                if n == 1 else kt @ chebyshev[n][1]
                for (_, kernel), n, kt in zip(band.pairs, band.points,
                                              of_band)])

    def _origin_pairs(self):
        """Per band with a pair whose G is not x, its unknown and per such
        pair (0-based equation, G, K(0, 0) times the jump of the curve
        slopes at 0, dG/dx(0, x0(0)))."""
        lin = self.lin
        k00, gx0, _ = lin.origin_factors
        slopes = [float(lin.curves.alpha_prime(j, 0.0))
                  for j in range(lin.n_bands + 1)]
        dslopes = np.diff(np.asarray(slopes))
        nonlinearities = lin.system.nonlinearities
        return [(lin.unknown_of_band[j],
                 [(i, nonlinearities[i][j], float(k00[i, j] * dslopes[j]),
                   float(gx0[i, j])) for i in equations])
                for j, equations in enumerate(lin.nonlinear_equations)
                if equations]

    def derivative_at_zero(self, iterate):
        """d(psi)/dt at t = 0: only the band boundary terms survive.

        As in :meth:`values`, a pair with G = x adds nothing (its bracket
        is 1 * xm0 - xm0 = 0 exactly), so only the pairs of
        :attr:`LinearizedSystem.nonlinear_equations` are evaluated.
        """
        out = self._fp0.copy()
        for component, pairs in self._origin:
            xm0 = iterate.value_at_zero(component)
            for i, g, weight, gx0 in pairs:
                out[i] += weight * (gx0 * xm0 - float(g(s=0.0, x=xm0)))
        return out


def iterate(system, method="collocation", degree=None, n_segments=None,
            max_iters=20, tol=1e-12, skip_validation=False):
    """Run the frozen-derivative outer iteration with an inner linear solver.

    Parameters
    ----------
    system : VolterraSystem
    method : "collocation" or "pc"
    degree : polynomial degree for the collocation inner solver
    n_segments : mesh segments for the piecewise-constant inner solver
    max_iters : iteration cap
    tol : stop once the sampled correction sup-norm drops this low

    Collocation integrates on ``collocation.DEFAULT_MOMENT_PANELS`` panels
    per band segment and pc on its ``pc.PIECE_PANELS`` pieces; psi sums on
    the same plan.

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
    # per method, the count it needs; degree and n_segments are checked
    # where they are used
    own = {"pc": "n_segments", "collocation": "degree"}.get(method)
    if own is None:
        raise ValueError(f"unknown inner method {method!r}")
    for name, value in (("degree", degree), ("n_segments", n_segments)):
        if name == own and value is None:
            raise ValueError(f"the {method} method needs {name}")
        if name != own and value is not None:
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
        disc = CollocationDiscretization(lin, degree)
    # psi starts from the guess sums of the solver's pass; what it keeps of
    # the plan after its first solver iterate is only what later calls read
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
        report.records.append(IterationRecord(
            index=step, correction=corr, ratio=ratio, iterate=solution,
            system=system))
        current = solution
        prev_correction = corr
        if corr <= tol:
            report.stop_reason = "tolerance"
            break
        if step >= 4:
            base = report.records[step - 4].correction
            if base > 0.0 and corr > DIVERGENCE_FACTOR * base:
                report.stop_reason = "divergence"
                break
    # the records keep their iterates, and no iterate its norm samples
    vars(solution).pop("_norm_samples", None)
    if report.stop_reason == "divergence":
        raise DivergenceError(
            f"correction norm grew from {base:.3e} to {corr:.3e} "
            f"over three iterations (step {step})", report)
    if report.stop_reason is None:
        report.stop_reason = "max-iterations"
    return solution, report
