"""Polynomial collocation for the linearized system.

Each unknown component is a degree-m polynomial in t.  The constant
coefficients come from the start-value system at t = 0; the remaining
n*m coefficients solve the square moment system collocated at the uniform
nodes t_k = k T / m.  The monomial basis is kept, but moments are
assembled in the rescaled variable s/T and the coefficients mapped back,
which tames the growth of the high powers when T > 1.

The moments come from the uncut :func:`quadrature.band_plan` of each band
over the collocation nodes, a (nodes, panels) block; each node's band
segment is a row.  The frozen kernel A = K * dG/dx(x0) is formed on it
one equation at a time, in row blocks, into one buffer reused by every
pair and band (:meth:`LinearizedSystem.frozen_pairs`), and read once:
the moments of a row are one product of A with the plan's table of
reference powers u^r (:func:`quadrature.reference_powers`), mapped to
the powers (s/T)^l of that row's piece by a binomial shift
(:func:`quadrature.power_shift`).  The same pass adds psi at the guess,
w * (sum A * x0 - sum K * G(s, x0)) per row, into f.

The discretization sums its own share of psi, w * (sum A * xm - sum K *
G(xm)) per row, and the outer iteration adds f
(:meth:`CollocationDiscretization.add_psi`).  It keeps, per band with a
pair whose G is not x, K, the products A @ table.T and the shifts
(:class:`~bandvie.problem.PsiBand`), not A.  For a polynomial iterate
sum A * xm comes from those products and, for a G that is a polynomial
in x, sum K * G(xm) from weights of K at the Chebyshev points that
interpolate G(xm) exactly; so the frozen kernel is evaluated once per
run, and K is read only up to the first polynomial iterate, which builds
the weights, after which it is kept only for a G with s or one that is
not a polynomial, summed on the plan.  A solve takes psi as an array at
the collocation nodes and its d/dt at 0
(:meth:`CollocationDiscretization.solve`).  Solutions are immutable.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

from . import quadrature
from .errors import SingularMatrixError, SolverError
from .expr import polynomial_degree
from .linalg import LUFactorization, refined_solve
from .problem import PsiBand, f_at_times, linearize, rhs_at_nodes

#: midpoint panels per band segment for moment integrals; the error tables
#: ask for moment errors well below 1e-8, which plain 200-panel quadrature
#: cannot deliver on segments of length ~1
DEFAULT_MOMENT_PANELS = 8000

#: estimated condition number above which a warning is attached
CONDITION_WARN = 1e10


class ConditioningWarning(UserWarning):
    """The collocation matrix is ill-conditioned (high degree, monomials)."""


def _caller_level():
    """The ``stacklevel`` of a warning raised where this is called that
    names the first frame outside the bandvie package: the caller's own
    line, however deep in bandvie the warning is raised."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get(
            "__name__", "").partition(".")[0] == "bandvie":
        frame, level = frame.f_back, level + 1
    return level


def collocation_nodes(horizon, degree):
    """Uniform collocation nodes t_k = k T / m, k = 1..m."""
    m = quadrature.checked_count("degree", degree)
    return np.arange(1, m + 1) * (float(horizon) / m)


def flatten_index(i, k, m):
    """0-based row/column of the moment system for 1-based (i, k), k <= m."""
    return (i - 1) * m + (k - 1)


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
    """The n Chebyshev points that interpolate G(xm) exactly for a
    polynomial iterate of ``degree`` >= 1: g * degree + 1 for a G that is
    a polynomial of degree g in x, if that is at most ``panels``; None
    otherwise (summed on the plan)."""
    g_degree = polynomial_degree(g, (panels - 1) // degree)
    return None if g_degree is None else g_degree * degree + 1


class _PsiBand(PsiBand):
    """A :class:`~bandvie.problem.PsiBand` of a collocation plan: one piece
    per node whose band segment is not empty, at the node index
    ``times[k]``, with the binomial ``shift`` of each piece, and per pair
    the ``points`` of its weights (:func:`_points`)."""

    def __init__(self, plan, lin, kept, shift, points):
        super().__init__(plan, lin, kept, None in points)
        self.times = plan.piece_time
        self.shift = shift
        self.points = points


class PolynomialSolution:
    """Per-component monomial coefficients (constant term first)."""

    def __init__(self, coefficients, component_domains, condition_number=None):
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.component_domains = tuple(component_domains)
        self.condition_number = condition_number
        self.n_components = self.coefficients.shape[0]

    @property
    def degree(self):
        return self.coefficients.shape[1] - 1

    def component_values(self, i, ts):
        """Horner's rule in place, bit for bit the same numbers as ``polyval``.

        ``polyval`` starts from ``c_m + ts * 0`` and forms ``c_k + acc * ts``
        with two temporaries per degree; here both steps write into one
        array.  A 0-d ``ts`` gives a numpy scalar, as ``polyval`` does.
        """
        ts = np.asarray(ts, dtype=float)
        c = self.coefficients[i - 1]
        acc = ts * 0.0
        acc += c[-1]
        for ck in c[-2::-1]:
            acc *= ts
            acc += ck
        return acc

    def plan_values(self, i, plan):
        """Component i on the pieces of a band ``plan``, as
        :meth:`bandvie.problem.ExpressionIterate.plan_values`: per piece
        its coefficients D in the plan's reference powers, c_hat @ S with
        c_hat_l = c_l * T^l, T the horizon (the largest component domain),
        and S the piece's :func:`quadrature.power_shift`; the values on a
        block are one product of its rows of D with the table of
        :func:`quadrature.reference_powers`."""
        m = self.degree
        scale = max(self.component_domains)
        shift = quadrature.power_shift(
            plan.piece_lo, plan.piece_width * plan.panels, scale, m)
        d = (self.coefficients[i - 1] * scale ** np.arange(m + 1)) @ shift
        table = quadrature.reference_powers(plan.panels, m)
        return lambda rows, s: d[rows] @ table

    def value_at_zero(self, i):
        return float(self.coefficients[i - 1, 0])

    def breakpoints_in(self, lo, hi):
        return np.empty(0)


class CollocationDiscretization:
    """Moment system assembled once; :meth:`solve` takes psi at :attr:`times`.

    The matrix (and its factorization) is shared across outer iterations,
    matching the frozen linear operator of the iteration; so is the
    start-value factorization behind the constant coefficients, and
    :attr:`f` and :attr:`psi_at_guess` at :attr:`times`, read-only.
    """

    def __init__(self, lin, degree, panels=DEFAULT_MOMENT_PANELS):
        #: the collocation nodes t_k = k T / m, where :meth:`solve` takes psi
        self.times = collocation_nodes(lin.curves.horizon, degree)
        self.lin = lin
        self.degree = m = self.times.size
        self.panels = quadrature.checked_count("panels", panels)
        self.scale = float(lin.curves.horizon)
        self._powers = self.scale ** np.arange(1, m + 1)
        self.f = f_at_times(lin.system, self.times)
        self.f.flags.writeable = False

        n_eq = lin.n_equations
        size = n_eq * m
        matrix = np.zeros((size, size))
        zeroth = np.zeros((n_eq, m, lin.n_bands))
        self._psi, self.psi_at_guess = self._assemble(matrix, zeroth)
        self.matrix = matrix
        self.zeroth_moments = zeroth
        self.condition_number = float(np.linalg.cond(matrix)) if size else 0.0
        if m >= 12 or self.condition_number > CONDITION_WARN:
            warnings.warn(
                f"collocation matrix at degree {m} has condition number "
                f"{self.condition_number:.3e}; coefficients may lose up to "
                f"{np.log10(max(self.condition_number, 1.0)):.0f} digits",
                ConditioningWarning, stacklevel=_caller_level())
        try:
            self._fact = LUFactorization(matrix)
        except SingularMatrixError as exc:
            # the error's traceback holds this frame: it keeps no K
            self._psi = None
            raise SolverError(
                f"singular collocation matrix at degree {m} "
                f"(condition ~ {self.condition_number:.3e}): {exc}") from exc

    def _assemble(self, matrix, zeroth):
        """Add the moments of every band to ``matrix`` and ``zeroth``, and
        return per band with a pair whose G is not x the
        :class:`_PsiBand` its psi sums on, and psi at the guess.

        A of each pair is formed into one buffer, reused by every pair and
        band (:meth:`~bandvie.problem.LinearizedSystem.frozen_pairs`), and
        read once, for its moments; what is kept is K of the pairs whose G
        is not x.
        """
        lin, m, panels = self.lin, self.degree, self.panels
        bands = []
        table = quadrature.reference_powers(panels, m)
        buffer = np.empty(2 * self.times.size * panels)
        guess = self.f.copy()
        edges = quadrature.band_edges(self.times, lin.curves)
        for plan in quadrature.band_plan(edges, panels):
            shift = quadrature.power_shift(
                plan.piece_lo, plan.piece_width * panels, self.scale, m)
            products, kept = [], []
            for i, a, kernel in lin.frozen_pairs(plan, self.times, buffer,
                                                 guess):
                products.append(a @ table.T)
                if kernel is not None:
                    kept.append((i, kernel, products[-1]))
            self._add_moments(matrix, zeroth, plan, shift, products)
            if kept and plan.piece_width.size:
                g = lin.system.nonlinearities
                bands.append(_PsiBand(plan, lin, kept, shift, [
                    _points(g[i][plan.band - 1], m, panels)
                    for i, *_ in kept]))
        guess.flags.writeable = False
        return bands, guess

    def _add_moments(self, matrix, zeroth, plan, shift, products):
        """Add the moments of the frozen kernel on one band's plan.

        One piece, a row of the plan, per node whose band segment is not
        empty; the entries accumulate in band order.  With ``products``
        per equation A @ table.T, ``table`` the reference powers of the
        plan (:func:`quadrature.reference_powers`), and ``shift`` S its
        binomial shift, the moments of a piece of width w are w * S @ (A @
        table.T): column 0 the zeroth moment, columns 1..m those of the
        scaled powers (s/T)^l.
        """
        m = self.degree
        j = plan.band
        cols = flatten_index(self.lin.unknown_of_band[j - 1],
                             np.arange(1, m + 1), m)
        for i, product in enumerate(products):
            moments = np.einsum("klr,kr->kl", shift, product)
            moments *= plan.piece_width[:, None]
            zeroth[i, plan.piece_time, j - 1] += moments[:, 0]
            rows = flatten_index(i + 1, plan.piece_time + 1, m)
            matrix[rows[:, None], cols] += moments[:, 1:]

    def add_psi(self, out, iterate):
        """Add this solver's share of psi at :attr:`times` into ``out``,
        f there, shape (n_eq, m): per node the sum over its pieces of w *
        (sum A * xm - sum K * G(xm)), w the panel width.

        ``iterate`` is a :class:`PolynomialSolution` of :attr:`degree`:
        its coefficients c_hat_l = c_l * T^l on piece k, D_k = c_hat @ S_k
        with S_k the shift of the piece, give sum A * xm = D_k . R_k, and
        sum K * G(xm) comes from the weights built at the first such
        iterate (:meth:`_keep_weights`).  Any other iterate, the
        linearization point too (its psi is :attr:`psi_at_guess`), raises
        :class:`SolverError` and changes nothing.  With no band to sum,
        psi is f, for any iterate.
        """
        if not self._psi:
            return
        m = self.degree
        if not (isinstance(iterate, PolynomialSolution)
                and iterate.degree == m):
            got = type(iterate).__name__
            if isinstance(iterate, PolynomialSolution):
                got += f" of degree {iterate.degree}"
            raise SolverError(f"collocation psi takes a polynomial of degree "
                              f"{m}, got {got}")
        if self._psi[0].weights is None:
            self._keep_weights()
        scaled = iterate.coefficients * self.scale ** np.arange(m + 1)
        for band in self._psi:
            for i, rows in band.pair_rows(scaled[band.component - 1]
                                          @ band.shift, self._table,
                                          self._nodes):
                out[i, band.times] += rows

    def _keep_weights(self):
        """Build, once, per pair its weights: W = (K @ T.T) @ C for n > 1
        points (the band's :attr:`_PsiBand.points`), T the rows T_r(2u -
        1), r < n, on the reference midpoints (:func:`_chebyshev_rows`)
        and C of :func:`_chebyshev`, the row sums of K for n = 1, and None
        for a pair summed on the plan; with the nodes V of each n > 1 and
        the reference powers that pair needs."""
        m, panels = self.degree, self.panels
        chebyshev = {n: _chebyshev(n, m) for band in self._psi
                     for n in band.points if (n or 0) > 1}
        self._nodes = {n: v for n, (v, _) in chebyshev.items()}
        self._table = (quadrature.reference_powers(panels, m)
                       if any(None in band.points for band in self._psi)
                       else None)
        products = [[np.empty((kernel.shape[0], n)) if (n or 0) > 1 else None
                     for kernel, n in zip(band.kernels, band.points)]
                    for band in self._psi]
        top = max(chebyshev, default=0)
        for start, rows in _chebyshev_rows(panels, top, m + 1):
            for band, of_band in zip(self._psi, products):
                for kernel, kt in zip(band.kernels, of_band):
                    if kt is not None and kt.shape[1] > start:
                        kt[:, start:start + rows.shape[0]] = (
                            kernel @ rows[:kt.shape[1] - start].T)
        for band, of_band in zip(self._psi, products):
            band.keep_weights([
                None if n is None else kernel.sum(axis=1)
                if n == 1 else kt @ chebyshev[n][1]
                for kernel, n, kt in zip(band.kernels, band.points, of_band)])

    def solve(self, psi, dpsi0):
        """The polynomial for psi at :attr:`times`, shape (n_eq, m), with
        d(psi)/dt at 0, shape (n_eq,), giving the constant coefficients."""
        lin = self.lin
        m = self.degree
        n_eq = lin.n_equations
        n_comp = lin.n_components
        a0 = lin.start_values(dpsi0)
        psi = rhs_at_nodes(psi, self.times, n_eq)
        # the start values' share of every row, added band by band; row
        # (i, k) sits at flatten_index(i, k, m), the row-major order
        contrib = np.zeros((n_eq, m))
        for j, u in enumerate(lin.unknown_of_band):
            contrib += a0[u - 1] * self.zeroth_moments[:, :, j]
        f_vec = (psi - contrib).ravel()
        scaled_coeffs = refined_solve(self._fact, self.matrix, f_vec)
        coeffs = np.zeros((n_comp, m + 1))
        coeffs[:, 0] = a0
        coeffs[:, 1:] = scaled_coeffs.reshape(n_comp, m) / self._powers
        return PolynomialSolution(coeffs, lin.system.component_domains(),
                                  self.condition_number)


def solve_linear_collocation(system, degree=5):
    """One-shot polynomial collocation solve of a system with its own f.

    The kernels are frozen along the initial guess.
    """
    disc = CollocationDiscretization(linearize(system), degree)
    return disc.solve(disc.f, disc.lin.f_prime_at_zero)
