"""Compositions of library calls that only the tests use."""

import numpy as np

from bandvie.linalg import LUFactorization, refined_solve
from bandvie.problem import linear_problem
from bandvie.quadrature import DEFAULT_PANELS, midpoints


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


def composite_midpoint(f, lo, hi, panels=DEFAULT_PANELS):
    """Integrate ``f`` over (lo, hi) with the composite midpoint rule.

    ``f`` receives a numpy array of abscissas and should return values of
    the same shape (scalars broadcast).  Returns exactly 0.0 when the
    interval is empty.

    Raises
    ------
    ValueError
        If any midpoint value is nan or infinite; the offending abscissa
        is named.
    """
    if panels < 1:
        raise ValueError("panels must be >= 1")
    if hi < lo:
        raise ValueError(f"inverted interval ({lo}, {hi})")
    if hi == lo:
        return 0.0
    mids, width = midpoints(lo, hi, panels)
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(np.asarray(f(mids), dtype=float), mids.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"integrand is {vals[i]} at s = {float(mids[i])!r}")
    return float(vals.sum() * width)


def segment_index(mesh, v):
    """1-based index l of the half-open mesh segment (t_{l-1}, t_l] holding v.

    A value equal to a node t_l belongs to segment l; v = 0 maps to 1.
    """
    v = float(v)
    if v < 0.0 or v > mesh.horizon * (1 + 1e-12):
        raise ValueError(f"{v} outside [0, {mesh.horizon}]")
    idx = int(np.searchsorted(mesh.nodes, min(v, mesh.horizon), side="left"))
    return max(idx, 1)
