"""Compositions of library calls that only the tests use."""

import numpy as np

from bandvie.linalg import LUFactorization, refined_solve
from bandvie.problem import linear_problem


def unflatten_index(r, m):
    """Inverse of :func:`bandvie.collocation.flatten_index`."""
    return r // m + 1, r % m + 1


def lu_solve(a, b):
    """Solve A x = b via LU with partial pivoting and one refinement step
    when the residual exceeds ``REFINE_RTOL * max(1, ||b||_inf)``.

    Raises
    ------
    SingularMatrixError
        When a pivot falls below ``PIVOT_RTOL`` times the largest initial
        column magnitude; the failing elimination step is named.
    """
    a = np.asarray(a, dtype=float)
    return refined_solve(LUFactorization(a), a, b)


def initial_values(lin, rhs=None):
    """Start values x(0) from the differentiated equations at t = 0.

    Accepts a plain :class:`VolterraSystem` (frozen along its initial
    guess, right-hand side f) or a :class:`LinearizedSystem` plus an
    explicit right-hand side.
    """
    lin, rhs = linear_problem(lin, rhs)
    return lin.start_values(rhs.derivative_at_zero())
