"""Problem data model: curves, kernels, nonlinearities, validation, linearization.

A system here is

    sum_j  integral over band j of  K_ij(t, s) * G_ij(s, x_{u(j)}(s)) ds = f_i(t)

for equations i = 1..n_equations, where band j is the region between the
curves alpha_{j-1}(t) and alpha_j(t) (alpha_0 = 0, alpha_{n_bands} = t) and
``u`` maps bands to unknown components.  The map is the identity for
ordinary systems; a scalar equation with a two-piece kernel maps both
bands to the single unknown.

Linearization freezes the kernels at an initial guess X0:

    Ktilde_ij(t, s) = K_ij(t, s) * dG_ij/dx (s, x0_{u(j)}(s)),

which is the operator inverted at every outer iteration.  One evaluator
forms it on an inner solver's band plans
(:meth:`LinearizedSystem.frozen_pairs`): pair by pair into one reused
buffer, in row blocks that stay in cache, adding psi at the guess into
f at the solver's times; a solver keeps of it only its moments or
weights, and, for the psi it sums itself, what its iterates need of K
(:class:`PsiBand`).  The linearization also keeps the t = 0 terms,
K(0, 0) and A(0, 0) times the jumps of the curve slopes at 0: the
start-value matrix and d(psi)/dt at 0
(:meth:`LinearizedSystem.derivative_at_zero`) both read them.  These
terms, and validation's sample along the guess, are formed pair by pair
by the evaluator's own code for K and for A.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import quadrature
from .errors import (
    CurveOrderingError,
    ProblemDefinitionError,
    SingularMatrixError,
    SolverError,
)
from .expr import Expression, parse
from .linalg import LUFactorization, refined_solve

#: sample count used by validate() for the sampled invariants
VALIDATION_SAMPLES = 1000

#: values per row block of :meth:`LinearizedSystem.frozen_pairs` (128 KB
#: of floats): the blocks of K, dG/dx, G and the abscissas stay in cache
BLOCK_VALUES = 16384

#: the nonlinearity whose psi bracket G'(x0) * xm - G(xm) is exactly zero
_IDENTITY = parse("x")


def _as_expression(value):
    if isinstance(value, Expression):
        return value
    if isinstance(value, str):
        return parse(value)
    if isinstance(value, (int, float)):
        return parse(repr(float(value)))
    raise ProblemDefinitionError(f"cannot interpret {value!r} as an expression")


def _check_variables(label, expr, allowed):
    """Reject an expression that uses a variable its role does not bind."""
    extra = sorted(expr.free_variables - set(allowed))
    if extra:
        raise ProblemDefinitionError(
            f"{label} may use only {', '.join(allowed)}, but uses {extra[0]}")


@dataclass(frozen=True)
class CurveFamily:
    """Discontinuity curves alpha_1..alpha_{n-1} on [0, T].

    alpha_0 == 0 and alpha_{n_bands}(t) == t are implicit.  The
    derivatives ``interior_prime`` come from :meth:`Expression.diff` at
    construction.  The horizon T must be a positive finite real number
    (not a boolean); it is stored as a float.
    """

    horizon: float
    interior: tuple
    interior_prime: tuple = field(init=False)

    def __post_init__(self):
        T = self.horizon
        if (isinstance(T, bool) or not isinstance(T, numbers.Real)
                or not 0 < T <= sys.float_info.max):
            raise ProblemDefinitionError(
                f"horizon T must be a positive finite number, got {T!r}")
        object.__setattr__(self, "horizon", float(T))
        exprs = tuple(_as_expression(e) for e in self.interior)
        for j, e in enumerate(exprs, start=1):
            _check_variables(f"alpha_{j}", e, ("t",))
        object.__setattr__(self, "interior", exprs)
        object.__setattr__(self, "interior_prime",
                           tuple(e.diff("t") for e in exprs))

    @property
    def n_bands(self):
        return len(self.interior) + 1

    def alpha(self, j, t):
        """Value of curve j at t (vectorized); j ranges over 0..n_bands."""
        if j == 0:
            return np.zeros_like(np.asarray(t, dtype=float))
        if j == self.n_bands:
            return np.asarray(t, dtype=float)
        return self.interior[j - 1](t=np.asarray(t, dtype=float))

    def alpha_prime(self, j, t):
        if j == 0:
            return np.zeros_like(np.asarray(t, dtype=float))
        if j == self.n_bands:
            return np.ones_like(np.asarray(t, dtype=float))
        return self.interior_prime[j - 1](t=np.asarray(t, dtype=float))


class VolterraSystem:
    """A validated-on-demand first-kind system with banded kernels.

    Parameters
    ----------
    curves : CurveFamily
    kernels : sequence of sequences
        K_ij expressions in (t, s); one row per equation, one column per band.
    nonlinearities : sequence of sequences
        G_ij expressions in (s, x), same shape as ``kernels``.
    rhs : sequence
        f_i expressions in t, one per equation.
    unknown_of_band : sequence of int, optional
        1-based component index per band; identity when omitted.  The
        components must be 1..n_equations, one per equation.
    exact : sequence, optional
        Exact solution expressions in t, one per component.
    guess : sequence, optional
        Initial-guess expressions in t, one per component (defaults to 0).
    name : str, optional

    Raises
    ------
    ProblemDefinitionError
        If the shapes do not fit, the band map does not give one component
        per equation, or an entry uses a variable outside its role; the
        entry (``K_1,2``, ``G_2,1``, ``f_1``, ...) is named.
    """

    def __init__(self, curves, kernels, nonlinearities, rhs,
                 unknown_of_band=None, exact=None, guess=None, name=""):
        self.curves = curves
        self.kernels = tuple(tuple(_as_expression(k) for k in row) for row in kernels)
        self.nonlinearities = tuple(
            tuple(_as_expression(g) for g in row) for row in nonlinearities
        )
        self.rhs = tuple(_as_expression(f) for f in rhs)
        self.name = name

        n_eq = len(self.rhs)
        n_bands = curves.n_bands
        if len(self.kernels) != n_eq or len(self.nonlinearities) != n_eq:
            raise ProblemDefinitionError(
                f"need one kernel/nonlinearity row per equation "
                f"({n_eq} equations, {len(self.kernels)} kernel rows)"
            )
        for row in self.kernels + self.nonlinearities:
            if len(row) != n_bands:
                raise ProblemDefinitionError(
                    f"kernel/nonlinearity rows must have {n_bands} bands, "
                    f"got {len(row)}"
                )
        for i in range(n_eq):
            _check_variables(f"f_{i + 1}", self.rhs[i], ("t",))
            for j in range(n_bands):
                _check_variables(f"K_{i + 1},{j + 1}", self.kernels[i][j],
                                 ("t", "s"))
                _check_variables(f"G_{i + 1},{j + 1}",
                                 self.nonlinearities[i][j], ("s", "x"))

        if unknown_of_band is None:
            unknown_of_band = tuple(range(1, n_bands + 1))
        for u in unknown_of_band:
            if isinstance(u, bool) or not isinstance(u, numbers.Integral):
                raise ProblemDefinitionError(
                    f"unknown_of_band entries must be integers, got {u!r}")
        self.unknown_of_band = tuple(int(u) for u in unknown_of_band)
        if len(self.unknown_of_band) != n_bands:
            raise ProblemDefinitionError(
                f"unknown_of_band must list {n_bands} bands"
            )
        comps = sorted(set(self.unknown_of_band))
        if comps != list(range(1, len(comps) + 1)):
            raise ProblemDefinitionError(
                "unknown_of_band must use the contiguous component indices 1..n"
            )
        self.n_components = len(comps)
        if self.n_components != n_eq:
            raise ProblemDefinitionError(
                f"unknown_of_band {self.unknown_of_band} gives "
                f"{self.n_components} component(s) for {n_eq} equation(s); "
                f"it must give one component per equation")

        self.rhs_prime = tuple(f.diff("t") for f in self.rhs)
        self.g_x = tuple(
            tuple(g.diff("x") for g in row) for row in self.nonlinearities
        )

        self.exact = None
        if exact is not None:
            self.exact = tuple(_as_expression(e) for e in exact)
            if len(self.exact) != self.n_components:
                raise ProblemDefinitionError(
                    f"exact solution needs {self.n_components} components"
                )
            for i, e in enumerate(self.exact, start=1):
                _check_variables(f"exact_{i}", e, ("t",))
        if guess is None:
            guess = ["0"] * self.n_components
        self.guess = tuple(_as_expression(g) for g in guess)
        if len(self.guess) != self.n_components:
            raise ProblemDefinitionError(
                f"initial guess needs {self.n_components} components"
            )
        for i, g in enumerate(self.guess, start=1):
            _check_variables(f"guess_{i}", g, ("t",))

        ends = [float(curves.alpha(j, curves.horizon))
                for j in range(1, n_bands + 1)]
        self._domains = tuple(
            max(end for end, u in zip(ends, self.unknown_of_band) if u == i)
            for i in range(1, self.n_components + 1))

    @property
    def n_equations(self):
        return len(self.rhs)

    @property
    def n_bands(self):
        return self.curves.n_bands

    @property
    def horizon(self):
        return self.curves.horizon

    def component_domain(self, i):
        """Right end of the interval where component i is determined:
        the largest alpha_j(T) over the bands feeding that component."""
        if not 1 <= i <= self.n_components:
            raise ValueError(f"no component {i} in 1..{self.n_components}")
        return self._domains[i - 1]

    def component_domains(self):
        """:meth:`component_domain` of every component, computed once."""
        return self._domains

    def exact_iterate(self):
        if self.exact is None:
            raise ProblemDefinitionError(f"system {self.name!r} has no exact solution")
        return ExpressionIterate(self.exact, self.component_domains())

    def guess_iterate(self):
        return ExpressionIterate(self.guess, self.component_domains())


class ExpressionIterate:
    """Smooth candidate solution given by one expression in t per component."""

    def __init__(self, exprs, domains):
        self.exprs = tuple(_as_expression(e) for e in exprs)
        self.component_domains = tuple(domains)
        self.n_components = len(self.exprs)

    def component_values(self, i, ts):
        ts = np.asarray(ts, dtype=float)
        values = np.asarray(self.exprs[i - 1](t=ts), dtype=float)
        if values.shape != ts.shape or values is ts:
            # a constant, or the expression t itself: an array of its own
            values = np.broadcast_to(values, ts.shape).copy()
        return values

    def plan_values(self, i, plan):
        """Component i on the pieces of a band ``plan``: a function of a
        slice of its pieces and their abscissas ``s`` that gives the
        values there, here the expression at every abscissa."""
        return lambda rows, s: self.component_values(i, s)

    def value_at_zero(self, i):
        return float(self.exprs[i - 1](t=0.0))

    def breakpoints_in(self, lo, hi):
        return np.empty(0)


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: the violated condition, a witness point, values."""

    condition: str
    witness: float
    detail: str

    def __str__(self):
        return f"{self.condition} at t = {self.witness:.6g}: {self.detail}"


def validate(system):
    """Check the sampled problem invariants; returns a list of diagnostics.

    An empty list means the system passed: curves start at 0, stay finite,
    ordered and nondecreasing, their t=0 slopes are ordered below 1,
    f_i(0) = 0 and f_i'(0) is finite, the last-band kernels do not vanish
    on the diagonal, each initial-guess component is finite at the sample
    times inside its own domain, and along the initial guess X0 the frozen
    kernels K_ij * dG_ij/dx and the nonlinearities G_ij(s, x0(s)) are
    finite where the solvers evaluate them.  The derivatives are
    bandvie's own, from :meth:`Expression.diff`, and are not re-checked
    here.  The band map is not checked here either:
    :class:`VolterraSystem` rejects one that does not give one component
    per equation when it is built.
    """
    out = []
    curves = system.curves
    T = curves.horizon
    ts = np.linspace(0.0, T, VALIDATION_SAMPLES)

    # each t = 0 and diagonal test is written to fail for nan, too: a value
    # that is not finite breaks the condition it was to satisfy
    for j in range(1, curves.n_bands):
        a0 = float(curves.alpha(j, 0.0))
        if not abs(a0) <= 1e-12:
            out.append(Diagnostic(
                f"alpha_{j}(0) != 0", 0.0, f"value {a0:.3e}"))

    prev = np.zeros_like(ts)
    for j in range(1, curves.n_bands + 1):
        vals = np.broadcast_to(np.asarray(curves.alpha(j, ts), float), ts.shape)
        # the ordering tests below are False for nan; t = 0 is alpha_j(0)'s
        k = _first_non_finite(vals[1:])
        if k is not None:
            out.append(Diagnostic(f"alpha_{j} is not finite",
                                  float(ts[k + 1]), f"value {vals[k + 1]}"))
        below = vals < prev - 1e-12
        if below.any():
            k = int(np.argmax(below))
            out.append(Diagnostic(
                f"curve ordering alpha_{j - 1} <= alpha_{j} violated",
                float(ts[k]),
                f"alpha_{j - 1} = {prev[k]:.6g}, alpha_{j} = {vals[k]:.6g}",
            ))
        if j < curves.n_bands:
            dec = np.diff(vals) < -1e-12
            if dec.any():
                k = int(np.argmax(dec))
                out.append(Diagnostic(
                    f"alpha_{j} not nondecreasing", float(ts[k + 1]),
                    f"drops from {vals[k]:.6g} to {vals[k + 1]:.6g}"))
        prev = vals

    slopes = [float(curves.alpha_prime(j, 0.0)) for j in range(1, curves.n_bands)]
    for j in range(1, len(slopes)):
        if not slopes[j] >= slopes[j - 1] - 1e-12:
            out.append(Diagnostic(
                "curve slopes at 0 out of order", 0.0,
                f"alpha'_{j}(0) = {slopes[j - 1]:.6g}, "
                f"alpha'_{j + 1}(0) = {slopes[j]:.6g}"))
    if slopes and not slopes[-1] < 1.0 - 1e-12:
        out.append(Diagnostic(
            "alpha'_{n-1}(0) must stay below 1", 0.0,
            f"value {slopes[-1]:.6g}"))

    for i, (f, fp) in enumerate(zip(system.rhs, system.rhs_prime), start=1):
        f0 = float(f(t=0.0))
        if not abs(f0) <= 1e-12:
            out.append(Diagnostic(f"f_{i}(0) != 0", 0.0, f"value {f0:.6g}"))
        d0 = float(fp(t=0.0))
        if not math.isfinite(d0):
            out.append(Diagnostic(
                f"f_{i}'(0) is not finite", 0.0,
                f"value {d0}; the start values need it finite"))

    last = system.n_bands - 1
    for i in range(system.n_equations):
        vals = np.abs(np.broadcast_to(
            np.asarray(system.kernels[i][last](t=ts, s=ts), float), ts.shape))
        bad = ~(vals > 1e-10)
        if bad.any():
            k = int(np.argmax(bad))
            fault = "vanishes" if math.isfinite(vals[k]) else "is not finite"
            out.append(Diagnostic(
                f"K_{i + 1},{system.n_bands}(t, t) {fault}", float(ts[k]),
                f"|value| = {vals[k]:.3e}"))

    guess = system.guess_iterate()
    for i, domain in enumerate(system.component_domains(), start=1):
        inside = ts[ts <= domain]
        vals = guess.component_values(i, inside)
        k = _first_non_finite(vals)
        if k is not None:
            out.append(Diagnostic(
                f"initial guess of component {i} is not finite",
                float(inside[k]),
                f"value {vals[k]}, inside its domain [0, {domain:.6g}]"))

    out.extend(_along_guess_diagnostics(system, ts))
    return out


def _along_guess_diagnostics(system, ts):
    """Non-finite K * dG/dx and G(s, x0(s)) along the initial guess X0.

    The frozen kernel is the operator every outer step inverts, and G at
    the guess is the value psi takes first; each (equation, band) pair gets
    at most one diagnostic for either.  Sampled where the solvers evaluate
    them: at the middle of each band segment at the sample times, which is
    t = s = 0 at the first.  G is not evaluated for a pair whose G is x,
    which adds nothing to psi.
    """
    try:
        edges = quadrature.band_edges(ts, system.curves)
    except CurveOrderingError:
        return []               # the curve-ordering diagnostic names it
    lin = linearize(system)
    out = []
    for j, nonlinear in enumerate(lin.nonlinear_equations, start=1):
        s = 0.5 * (edges[:, j - 1] + edges[:, j])
        x0 = None
        if nonlinear:
            x0 = lin.x0.component_values(system.unknown_of_band[j - 1], s)
        a = np.empty(s.shape)
        for i in range(system.n_equations):
            lin._product(i, j, lin._kernel(i, j, ts, s, s.shape), s,
                         x0 if i in nonlinear else None, a)
            k = _first_non_finite(a)
            if k is not None:
                out.append(Diagnostic(
                    f"non-finite frozen kernel in equation {i + 1}, band {j}",
                    float(ts[k]), f"s = {s[k]:.6g}, along the initial guess"))
        for i in nonlinear:
            g = np.broadcast_to(np.asarray(
                system.nonlinearities[i][j - 1](s=s, x=x0), float), s.shape)
            k = _first_non_finite(g)
            if k is not None:
                out.append(Diagnostic(
                    f"non-finite G along the initial guess in equation "
                    f"{i + 1}, band {j}", float(ts[k]),
                    f"s = {s[k]:.6g}, G_{i + 1},{j} = {g[k]}"))
    return out


def _of_shape(values, shape):
    """``values`` as floats of ``shape``: the array itself when it has that
    shape, else a broadcast view (``np.broadcast_to`` costs more than the
    values of a small block)."""
    values = np.asarray(values, dtype=float)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _first_non_finite(values):
    """Flat index of the first non-finite entry of ``values`` in row-major
    order, or None when all are finite.

    One sum over ``values`` settles the usual, finite case without a
    temporary; a non-finite value makes the sum non-finite, and only then
    (or when finite values overflow the sum) is each value checked.
    """
    with np.errstate(all="ignore"):
        if math.isfinite(np.add.reduce(values, axis=None)):
            return None
        bad = ~np.isfinite(values)
    if not bad.any():
        return None
    return int(np.argmax(bad))


class LinearizedSystem:
    """Kernels frozen along an initial guess, ready for the inner solvers.

    The frozen kernels depend only on X0 and never change while the outer
    iteration runs; only the right-hand side is rebuilt per iteration, and
    the start-value system is factorized once.
    """

    def __init__(self, system, x0):
        self.system = system
        self.x0 = x0
        self.curves = system.curves
        self.unknown_of_band = system.unknown_of_band
        self.n_equations = system.n_equations
        self.n_bands = system.n_bands
        self.n_components = system.n_components

    def frozen_pairs(self, plan, times, buffer, guess):
        """The frozen kernel on a band plan, one equation at a time.

        Yields, for every equation i in order, ``(i, a, kernel)`` on the
        band of ``plan``, whose ``piece_time`` indexes the outer ``times``:
        ``a`` is A_ij = K_ij * dG_ij/dx(s, x0(s)) on the plan, a (pieces,
        panels) view of ``buffer`` that the next pair overwrites.  For a
        pair whose G is not x, ``kernel`` is K_ij on the plan (a broadcast
        view for a K free of s), and w * (sum A * x0 - sum K * G(s, x0))
        per piece, w its panel width, is first added into row i of psi at
        the guess ``guess`` by :func:`numpy.add.at`, piece by piece; for
        G = x ``kernel`` is None.  ``buffer`` is a flat array of two plan
        sizes at least, and x0 fills the second once per band.

        Every value is formed in blocks of about ``BLOCK_VALUES`` values,
        whole rows, the abscissas too: only A, x0 and the K handed back
        reach plan size.  A block holds the bits of the whole-plan values,
        and each row of a sum adds alone, so the blocks do not show.

        Raises
        ------
        SolverError
            If A is non-finite; the equation, the band and the first bad
            outer time and abscissa in row-major order are named.
        """
        j = plan.band
        shape = (plan.piece_width.size, plan.panels)
        size = shape[0] * shape[1]
        a = buffer[:size].reshape(shape)
        t = times[plan.piece_time, None]
        step = max(1, BLOCK_VALUES // shape[1])
        blocks = [slice(r, r + step) for r in range(0, shape[0], step)]
        nonlinear = self.nonlinear_equations[j - 1]
        if nonlinear:
            x0 = buffer[size:2 * size].reshape(shape)
            u = self.unknown_of_band[j - 1]
            for rows in blocks:
                x0[rows] = self.x0.component_values(u, plan.rows(rows))
        system = self.system
        for i in range(self.n_equations):
            kept = i in nonlinear
            # a K free of s is formed once, on the column of times
            whole = None
            if "s" not in system.kernels[i][j - 1].free_variables:
                whole = self._kernel(i, j, t, None, shape)
            needs_s = whole is None or kept and any(
                "s" in e.free_variables for e in (
                    system.g_x[i][j - 1], system.nonlinearities[i][j - 1]))
            kernel = None
            if kept:
                kernel = np.empty(shape) if whole is None else whole
                sums = np.empty(shape[0])
            for rows in blocks:
                s = plan.rows(rows) if needs_s else None
                if whole is None:
                    k = self._kernel(i, j, t[rows], s, s.shape)
                    if kept:
                        kernel[rows] = k
                else:
                    k = whole[rows]
                block = a[rows]
                self._product(i, j, k, s, x0[rows] if kept else None, block)
                bad = _first_non_finite(block)
                if bad is not None:
                    row, col = divmod(bad, shape[1])
                    raise self._non_finite(
                        i, j, t[rows][row, 0], plan.rows(rows)[row, col])
                if kept:
                    xm = x0[rows]
                    gm = _of_shape(
                        system.nonlinearities[i][j - 1](s=s, x=xm), xm.shape)
                    # einsum runs its own loop, row by row: a BLAS product
                    # would make the last bits depend on the BLAS build
                    sums[rows] = np.einsum("kp,kp->k", block, xm)
                    sums[rows] -= np.einsum("kp,kp->k", k, gm)
            if kept:
                np.add.at(guess[i], plan.piece_time, sums * plan.piece_width)
            yield i, a, kernel

    def _kernel(self, i, j, t, s, shape):
        """K_ij at ``t`` and ``s``, of ``shape``; a K constant in s stays a
        broadcast view."""
        return _of_shape(self.system.kernels[i][j - 1](t=t, s=s), shape)

    def _product(self, i, j, kernel, s, x0, out):
        """A_ij = K_ij * dG_ij/dx(s, x0) into ``out``; returns dG/dx, or
        None for ``x0`` None, a pair with G = x, whose A is K (K * 1.0 is
        K bit for bit)."""
        if x0 is None:
            out[...] = kernel
            return None
        slope = _of_shape(self.system.g_x[i][j - 1](s=s, x=x0), out.shape)
        np.multiply(kernel, slope, out=out)
        return slope

    @staticmethod
    def _non_finite(i, j, t, s):
        return SolverError(
            f"non-finite frozen kernel in equation {i + 1}, band {j} "
            f"at t = {t:.6g}, s = {s:.6g}")

    @cached_property
    def nonlinear_equations(self):
        """Per band (0-based), the 0-based equations whose G is not x.

        Only these pairs add to the outer iteration's right-hand side: for
        G = x and a finite iterate the bracket G'(x0) * xm - G(xm) is
        1 * xm - xm = 0 exactly.
        """
        g = self.system.nonlinearities
        return tuple(tuple(i for i in range(self.n_equations)
                           if g[i][j] != _IDENTITY)
                     for j in range(self.n_bands))

    @cached_property
    def f_prime_at_zero(self):
        """f'(0), shape (n_eq,), read-only: d(psi)/dt at 0 of a linear
        solve for the system's own f."""
        out = np.array([float(fp(t=0.0)) for fp in self.system.rhs_prime])
        out.flags.writeable = False
        return out

    @cached_property
    def _origin(self):
        """The t = 0 terms: three (n_eq, n_bands) arrays, per pair (i, j)
        K_ij(0, 0) * dalpha'_j, dG_ij/dx(0, x0(0)) (1 for G = x) and
        A_ij(0, 0) * dalpha'_j, where dalpha'_j = alpha'_j(0) -
        alpha'_{j-1}(0) is the jump of the curve slopes at 0.

        Formed once, pair by pair, band by band, by the code of
        :meth:`frozen_pairs` on the abscissa s = 0 at t = 0.

        Raises
        ------
        SolverError
            If A is non-finite at t = s = 0, naming the first such pair
            (band by band, equation by equation), or else if a slope jump is
            not finite, naming the first such band.
        """
        s = np.zeros(1)
        k00, gx00, a00 = np.ones((3, self.n_equations, self.n_bands))
        for j, nonlinear in enumerate(self.nonlinear_equations, start=1):
            x0 = None
            if nonlinear:
                x0 = self.x0.component_values(self.unknown_of_band[j - 1], s)
            for i in range(self.n_equations):
                kernel = self._kernel(i, j, 0.0, s, s.shape)
                a = a00[i, j - 1:j]
                slope = self._product(i, j, kernel, s,
                                      x0 if i in nonlinear else None, a)
                if not math.isfinite(a[0]):
                    raise self._non_finite(i, j, 0.0, 0.0)
                k00[i, j - 1] = kernel[0]
                if slope is not None:
                    gx00[i, j - 1] = slope[0]
        slopes = [float(self.curves.alpha_prime(j, 0.0))
                  for j in range(self.n_bands + 1)]
        jumps = np.diff(slopes)
        j = _first_non_finite(jumps)
        if j is not None:
            raise SolverError(
                f"the curve slopes at t = 0 jump by {jumps[j]} into band "
                f"{j + 1} (alpha'_{j}(0) = {slopes[j]:.6g}, alpha'_{j + 1}(0)"
                f" = {slopes[j + 1]:.6g}); the start values need it finite")
        return k00 * jumps, gx00, a00 * jumps

    def start_value_matrix(self):
        """Coefficient matrix of the start-value system at t = 0.

        Entry (i, u) accumulates Ktilde_ij(0,0) * (alpha'_j(0) - alpha'_{j-1}(0))
        over the bands j mapped to component u.
        """
        a00 = self._origin[2]
        mat = np.zeros((self.n_equations, self.n_components))
        for j, u in enumerate(self.unknown_of_band):
            mat[:, u - 1] += a00[:, j]
        return mat

    def derivative_at_zero(self, iterate):
        """d(psi)/dt at t = 0 for ``iterate``: f'(0) plus per pair the
        band boundary term K(0, 0) * dalpha'_j * (dG/dx(0, x0(0)) * xm(0)
        - G(0, xm(0))), for the pairs of :attr:`nonlinear_equations` only
        (a pair with G = x adds 1 * xm0 - xm0 = 0 exactly)."""
        weights, gx00, _ = self._origin
        nonlinearities = self.system.nonlinearities
        out = self.f_prime_at_zero.copy()
        for j, equations in enumerate(self.nonlinear_equations):
            if not equations:
                continue
            xm0 = iterate.value_at_zero(self.unknown_of_band[j])
            for i in equations:
                g0 = float(nonlinearities[i][j](s=0.0, x=xm0))
                out[i] += weights[i, j] * (gx00[i, j] * xm0 - g0)
        return out

    @cached_property
    def _start_factorization(self):
        mat = self.start_value_matrix()
        try:
            return mat, LUFactorization(mat)
        except SingularMatrixError as exc:
            raise SolverError(
                "start-value system at t = 0 is singular; the problem data "
                "violate the unique-solvability assumption for the initial "
                f"values ({exc})"
            ) from exc

    def start_values(self, derivative_at_zero):
        """Start values x(0) for a right-hand side with the given d/dt at 0.

        The start-value matrix is built and factorized on the first call
        and reused by every later one.

        Raises
        ------
        SolverError
            If a derivative at 0 is not finite; the equation is named.
        """
        d0 = np.asarray(derivative_at_zero, dtype=float)
        i = _first_non_finite(d0)
        if i is not None:
            raise SolverError(
                f"d/dt of the right-hand side of equation {i + 1} at t = 0 "
                f"is {d0[i]}; the start values need it finite")
        mat, fact = self._start_factorization
        return refined_solve(fact, mat, d0)


class PsiBand:
    """One band of an inner solver's plan with a pair whose G is not x:
    what the solver keeps of its set-up pass to sum its share of psi.

    ``kept`` holds, per such pair in equation order, its 0-based equation,
    K on ``plan`` (None where only its weights are kept) and R = A @
    table.T, both from :meth:`LinearizedSystem.frozen_pairs`, ``table``
    the reference powers up to the degree of the solver's iterates; A is
    not kept.  Row k of each is piece k of the plan, of panel width
    ``piece_width[k]``.  A band with a pair whose G is summed ``on_plan``
    keeps its abscissas, flat, and a buffer of their shape, not the plan.
    The weights of K are set by :meth:`keep_weights`.
    """

    def __init__(self, plan, lin, kept, on_plan):
        self.band = plan.band - 1                       # 0-based
        self.component = lin.unknown_of_band[self.band]  # 1-based
        self.piece_width = plan.piece_width
        self.equations, self.kernels, self.moments = (
            list(column) for column in zip(*kept))
        self.nonlinearities = [lin.system.nonlinearities[i][self.band]
                               for i in self.equations]
        self.weights = self.abscissas = self.buffer = None
        if on_plan:
            self.abscissas = plan.abscissas.reshape(-1)
            self.buffer = np.empty((self.piece_width.size, plan.panels))

    def keep_weights(self, weights):
        """Keep per pair the ``weights`` of K: its row sums, a (pieces, n)
        block W for n points, or None for a pair summed on the plan; K of
        every pair with weights goes."""
        self.weights = weights
        self.kernels = [kernel if w is None else None
                        for kernel, w in zip(self.kernels, weights)]

    def pair_rows(self, coefficients, table, nodes=None):
        """Yield per pair its 0-based equation and, per piece k, w * (D_k
        . R_k - sum K * G(xm)).

        Row k of ``coefficients`` is the iterate on piece k in the
        reference powers ``table``.  Sum K * G(xm) is G(D_k0) times the row
        sums of K for a pair with one point (a step iterate, or a G
        constant in x), and W_k . G(D_k(v)) for the weights W of n points
        v, the iterate there D_k @ ``nodes[n]``, formed once per call for
        every pair of n points.  A pair without weights is summed on the
        plan, the iterate put there once per call, into :attr:`buffer`.
        """
        xm, at_points = None, {}
        for i, g, kernel, moments, weights in zip(
                self.equations, self.nonlinearities, self.kernels,
                self.moments, self.weights):
            rows = np.einsum("kr,kr->k", coefficients, moments)
            if weights is None:
                if xm is None:
                    xm = np.matmul(coefficients, table,
                                   out=self.buffer).reshape(-1)
                gm = np.broadcast_to(g(s=self.abscissas, x=xm), xm.shape)
                rows -= np.einsum("kp,kp->k", kernel,
                                  gm.reshape(kernel.shape))
            elif weights.ndim == 1:
                rows -= g(x=coefficients[:, 0]) * weights
            else:
                n = weights.shape[1]
                x = at_points.get(n)
                if x is None:
                    x = at_points[n] = coefficients @ nodes[n]
                # a row adds in the same (pairwise) order as it would alone
                rows -= (weights * g(x=x)).sum(axis=1)
            rows *= self.piece_width
            yield i, rows


def linearize(system, x0=None):
    """Freeze the kernels of ``system`` along ``x0`` (default: its initial guess)."""
    if x0 is None:
        x0 = system.guess_iterate()
    return LinearizedSystem(system, x0)


def f_at_times(system, times):
    """f at ``times``, shape (n_eq, n_times); f'(0) is the linearization's
    (:attr:`LinearizedSystem.f_prime_at_zero`)."""
    return np.vstack([
        np.broadcast_to(np.asarray(f(t=times), float), times.shape)
        for f in system.rhs])


def rhs_at_nodes(values, nodes, n_equations):
    """A right-hand side at ``nodes``, checked: shape (n_equations,
    n_nodes), all finite."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n_equations, nodes.size):
        raise SolverError(f"right-hand side has shape {values.shape}, "
                          f"expected {(n_equations, nodes.size)}")
    bad = _first_non_finite(values.T)       # node-major
    if bad is not None:
        r, i = divmod(bad, n_equations)
        raise SolverError(f"right-hand side of equation {i + 1} is "
                          f"{values[i, r]} at node {r + 1} (t = {nodes[r]:.6g})")
    return values


def band_quadrature_residual(system, solution, t, panels=2000):
    """Residual of the original equations at time(s) t for a candidate solution.

    Evaluates sum_j integral K_ij * G_ij(s, x_{u(j)}(s)) ds - f_i(t) with
    band-split composite midpoint quadrature, independent of any solver
    path.  Each band is planned by :func:`quadrature.band_plan`, like
    every solver, with its segments cut at the solution's k breakpoints
    in (0, T), and every piece gets ceil(panels / (k + 1)) panels, so a
    smooth solution (k = 0) gets ``panels`` per band segment.
    The share depends on the horizon T only, so a time gets the same
    panels alone as in any batch, and the same bits but for a polynomial
    solution, whose values on a block of one row take another BLAS path.
    ``t`` may be a scalar (result shape (n_equations,)) or an array of
    times (result shape (n_equations,) + t.shape), all integrated in one
    quadrature plan per band.

    Each plan is walked in row blocks of about ``BLOCK_VALUES`` values,
    whole pieces: a block forms its own abscissas, K and G, and keeps
    only its per-piece sums, each piece summed alone.  The solution is
    read once per plan (its ``plan_values``), which hands back its values
    per block: one value per piece for a step function, a product with
    the plan's reference powers for a polynomial.

    Raises
    ------
    ValueError
        If ``panels`` is not an integer >= 1, or a time is not finite or
        lies outside [0, T]; the first such time is named.
    CurveOrderingError
        If a curve drops below the one before it at a time.
    """
    panels = quadrature.checked_count("panels", panels)
    t = np.asarray(t, dtype=float)
    times = t.ravel()
    horizon = system.curves.horizon
    outside = ~((times >= 0.0) & (times <= horizon))    # nan is outside
    if outside.any():
        raise ValueError(f"t must be finite and lie in [0, T = {horizon}], "
                         f"got {times[np.argmax(outside)]}")
    cuts = solution.breakpoints_in(0.0, horizon)
    plans = quadrature.band_plan(quadrature.band_edges(times, system.curves),
                                 -(-panels // (cuts.size + 1)), cuts)
    # bincount adds in array order: per time -f_i(t) first, then the piece
    # integrals band by band and along s, the order of a per-time loop
    index = [np.arange(times.size)]
    terms = [[-np.broadcast_to(np.asarray(f(t=times), float), times.shape)]
             for f in system.rhs]
    for plan in plans:
        j = plan.band - 1
        kernels = [row[j] for row in system.kernels]
        nonlinearities = [row[j] for row in system.nonlinearities]
        values = solution.plan_values(system.unknown_of_band[j], plan)
        tv = times[plan.piece_time, None]
        sums = np.empty((system.n_equations, plan.piece_width.size))
        step = max(1, BLOCK_VALUES // plan.panels)
        product = np.empty((min(step, sums.shape[1]), plan.panels))
        for start in range(0, sums.shape[1], step):
            rows = slice(start, start + step)
            s = plan.rows(rows)
            x = values(rows, s)
            block = product[:s.shape[0]]
            for i, (k, g) in enumerate(zip(kernels, nonlinearities)):
                np.multiply(k(t=tv[rows], s=s), g(s=s, x=x), out=block)
                sums[i, rows] = plan.piece_sums(block)
        sums *= plan.piece_width
        index.append(plan.piece_time)
        for row, piece_sums in zip(terms, sums):
            row.append(piece_sums)
    index = np.concatenate(index)
    out = np.vstack([
        np.bincount(index, weights=np.concatenate(row), minlength=times.size)
        for row in terms])
    return out.reshape((system.n_equations,) + t.shape)
