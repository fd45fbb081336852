"""Polynomial collocation for the linearized system.

Each unknown component is a degree-m polynomial in t.  The constant
coefficients come from the start-value system at t = 0; the remaining
n*m coefficients solve the square moment system collocated at the uniform
nodes t_k = k T / m.  The monomial basis is kept, but moments are
assembled in the rescaled variable s/T and the coefficients mapped back,
which tames the growth of the high powers when T > 1.

The moments come from one :func:`quadrature.band_plan` per band over the
collocation nodes, a (nodes, panels) block; each node's band segment is a
row of that plan.  The frozen kernel A = K * dG/dx(x0) is formed on it
one equation at a time, in row blocks, into one buffer reused by every
pair and band (:meth:`LinearizedSystem.frozen_pairs`), and read once:
the moments of a row are one product of A with the plan's table of
reference powers u^r (:func:`quadrature.reference_powers`), mapped to
the powers (s/T)^l of that row's piece by a binomial shift
(:func:`quadrature.power_shift`).  The same pass sums psi at the guess
per row, sum A * x0 - sum K * G(s, x0).  The outer iteration hands the
plan, K, those sums, the products A @ table.T and the shifts on to its
psi evaluator (:meth:`CollocationDiscretization.take_frozen_plan`), not
A: psi = f + w * (sum A * xm - sum K * G(xm)) over the same rows is
then the handed sum at the guess, and for a polynomial iterate sum A *
xm comes from those products and, for a G that is a polynomial in x, sum
K * G(xm) from weights of K at Chebyshev points; so the frozen kernel is
evaluated once per run, and psi reads K only up to its first polynomial
iterate, after which it keeps K and the plan only for a G with s or one
that is not a polynomial.  A solve takes psi as an array at the
collocation nodes and its d/dt at 0
(:meth:`CollocationDiscretization.solve`).  Solutions are immutable.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

from . import quadrature
from .errors import SingularMatrixError, SolverError
from .linalg import LUFactorization, refined_solve
from .problem import FrozenBand, f_at_times, linearize, rhs_at_nodes

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

    def value_at_zero(self, i):
        return float(self.coefficients[i - 1, 0])

    def breakpoints_in(self, lo, hi):
        return np.empty(0)


class CollocationDiscretization:
    """Moment system assembled once; :meth:`solve` takes psi at :attr:`times`.

    The matrix (and its factorization) is shared across outer iterations,
    matching the frozen linear operator of the iteration; so is the
    start-value factorization behind the constant coefficients.
    """

    def __init__(self, lin, degree, panels=DEFAULT_MOMENT_PANELS):
        #: the collocation nodes t_k = k T / m, where :meth:`solve` takes psi
        self.times = collocation_nodes(lin.curves.horizon, degree)
        self.lin = lin
        self.degree = m = self.times.size
        self.panels = quadrature.checked_count("panels", panels)
        self.scale = float(lin.curves.horizon)
        self._powers = self.scale ** np.arange(1, m + 1)

        n_eq = lin.n_equations
        size = n_eq * m
        matrix = np.zeros((size, size))
        zeroth = np.zeros((n_eq, m, lin.n_bands))
        self._frozen = self._assemble(matrix, zeroth)
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
            # the error's traceback holds this frame: it keeps no plan
            self._frozen = None
            raise SolverError(
                f"singular collocation matrix at degree {m} "
                f"(condition ~ {self.condition_number:.3e}): {exc}") from exc

    def _assemble(self, matrix, zeroth):
        """Add the moments of every band to ``matrix`` and ``zeroth``, and
        return per band the :class:`~bandvie.problem.FrozenBand` of the
        pairs whose G is not x, which the right-hand side needs.

        A of each pair is formed into one buffer, reused by every pair and
        band (:meth:`~bandvie.problem.LinearizedSystem.frozen_pairs`), and
        read once, for its moments; what is kept is K of the pairs whose G
        is not x, with their sums at the guess.
        """
        lin = self.lin
        frozen = []
        table = quadrature.reference_powers(self.panels, self.degree)
        buffer = np.empty(2 * self.degree * self.panels)
        for plan in quadrature.band_plan(self.times, lin.curves, self.panels):
            shift = quadrature.power_shift(
                plan.piece_lo, plan.piece_width * self.panels, self.scale,
                self.degree)
            products, kernels, guess, moments = [], {}, {}, {}
            for i, a, kernel, at_guess in lin.frozen_pairs(plan, self.times,
                                                           buffer):
                products.append(a @ table.T)
                if kernel is not None:
                    kernels[i], guess[i] = kernel, at_guess
                    moments[i] = products[-1]
            self._add_moments(matrix, zeroth, plan, shift, products)
            frozen.append(FrozenBand(plan, kernels, guess, moments,
                                     shift=shift))
        return frozen

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

    def take_frozen_plan(self):
        """Hand over the band plans the moments were taken from, once.

        Per band a :class:`~bandvie.problem.FrozenBand`: the plan over the
        collocation nodes, one row of ``panels`` abscissas per node, and,
        per pair whose G is not x, K, the sums at the guess and the
        products R = A @ table.T the moments were taken from, with the
        binomial shift of each row; A itself is not kept.  Afterwards the
        discretization holds none of it; a second call raises
        :class:`SolverError`.
        """
        frozen, self._frozen = self._frozen, None
        if frozen is None:
            raise SolverError("the collocation plan was handed over already")
        return frozen

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
    return disc.solve(*f_at_times(system, disc.times))
