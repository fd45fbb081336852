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
is 1 * xm - xm = 0 exactly), so it is skipped
(:attr:`LinearizedSystem.nonlinear_equations`).

Each inner solver sums its own share of psi, the integrals, on the plan
its operator was built from, and reads only its own iterates (its
``add_psi``); :class:`PsiEvaluator` adds f, and the linearization gives
d(psi)/dt at 0 (:meth:`LinearizedSystem.derivative_at_zero`).  A step
costs psi, the inner solve and the correction norm; the loop keeps the
norm grids and the current iterate's samples on them, so every iterate is
sampled once.  The step's :class:`IterationRecord` keeps its iterate; the
errors against a known exact solution are measured only when a record's
are first read.  Nothing is stored on an iterate or a system.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .collocation import CollocationDiscretization
from .errors import DivergenceError, ProblemDefinitionError, SolverError
from .pc import Mesh, PCDiscretization
from .problem import _first_non_finite, f_at_times, linearize, validate
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


def correction_norm(prev, nxt, samples):
    """Sup over components of the sup over sampled t of |next - prev|.

    Each component is sampled at ``NORM_SAMPLES`` uniform points on its own
    interval of definition (endpoints included).  ``samples`` is the
    caller's list of (grid, values) per component: filled for ``prev``
    when empty, it is left holding nxt's values, so along an outer
    iteration every grid is built once and every iterate sampled once.

    Raises
    ------
    SolverError
        If the correction of a component is not finite; the component and
        the first bad t are named.
    """
    if not samples:
        for i, domain in enumerate(nxt.component_domains, start=1):
            ts = np.linspace(0.0, domain, NORM_SAMPLES)
            samples.append((ts, np.asarray(prev.component_values(i, ts),
                                           dtype=float)))
    worst = 0.0
    for i, (ts, a) in enumerate(samples, start=1):
        b = np.asarray(nxt.component_values(i, ts), dtype=float)
        samples[i - 1] = ts, b
        diff = np.abs(b - a)
        top = float(np.max(diff))      # nan propagates through max
        if not math.isfinite(top):
            k = _first_non_finite(diff)
            raise SolverError(
                f"correction of component {i} is {diff[k]} at t = "
                f"{ts[k]:.6g} (previous {a[k]}, next {b[k]})")
        worst = max(worst, top)
    return worst


class PsiEvaluator:
    """Psi at the ``times`` of an inner solver ``disc``, for ``lin.x0`` or
    an iterate of that solver.

    psi_i(t_k) = f_i(t_k) plus the solver's sums over the pieces of t_k
    of w * (sum A_i * xm - sum K_i * G_i(xm)), w the piece's panel width
    (``disc.add_psi``, which refuses an iterate it does not make).  The
    evaluator keeps f at the times and psi at the linearization point,
    summed once here (``values(lin.x0)`` returns a copy).
    """

    def __init__(self, lin, disc):
        self.lin = lin
        self.disc = disc
        self._f_vals = f_at_times(lin.system, disc.times)
        self._at_x0 = self._f_vals.copy()
        disc.add_psi(self._at_x0, lin.x0)

    def values(self, iterate):
        """Psi at the solver's times, shape (n_eq, n_times), for
        ``lin.x0`` or an iterate of the solver."""
        if iterate is self.lin.x0:
            return self._at_x0.copy()
        out = self._f_vals.copy()
        self.disc.add_psi(out, iterate)
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
    per band segment and pc on its ``pc.PIECE_PANELS`` pieces; each sums
    its psi on the same plan.

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
    # psi starts from the guess sums of the solver's pass; what the solver
    # keeps of its plan after its first iterate is only what psi reads
    evaluator = PsiEvaluator(lin, disc)

    report = IterationReport()
    current = lin.x0
    samples = []                     # the norm grids and current's values
    prev_correction = None
    solution = None
    for step in range(1, max_iters + 1):
        solution = disc.solve(evaluator.values(current),
                              lin.derivative_at_zero(current))
        try:
            corr = correction_norm(current, solution, samples)
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
    if report.stop_reason == "divergence":
        raise DivergenceError(
            f"correction norm grew from {base:.3e} to {corr:.3e} "
            f"over three iterations (step {step})", report)
    if report.stop_reason is None:
        report.stop_reason = "max-iterations"
    return solution, report
