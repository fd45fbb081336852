"""Composite midpoint quadrature and band splitting along discontinuity curves.

The midpoint rule is the only rule used anywhere in the package: every
integral is split so that no panel straddles a kernel discontinuity or a
breakpoint of a piecewise-constant iterate, and the smooth pieces are
integrated with the rule below.

:func:`band_edges` evaluates the curves over a whole vector of outer
times at once, and :func:`band_plan` cuts the band segments between the
edges at a caller's cuts and lays out the abscissas; every solver and the
residual oracle plan this way, so a caller evaluates each kernel once per
band instead of once per time and piece.  pc cuts at its mesh nodes, with
the edges within roundoff of a node snapped onto it; collocation does not
cut; the oracle (:func:`bandvie.problem.band_quadrature_residual`) cuts at
the k breakpoints of the solution, gives each piece ceil(panels / (k + 1))
panels, walks each plan in row blocks and reads the solution once per
piece, a polynomial through the reference powers below.  Every piece of a
plan gets the same panel count, so the abscissas form one (pieces,
panels) block, built by broadcasting, and a caller passes the outer times
as a (pieces, 1) column.  A plan stores only its pieces; a caller forms
the block, or a run of its rows at a time (:meth:`BandPlan.rows`), where
it evaluates on it.

Every piece of such a plan is an affine image s = lo + u * (panels *
width) of one reference grid u_q = (q + 1/2) / panels, so the powers
(s / T)^l of a polynomial on a plan come from one table of the reference
powers u_q^r (:func:`reference_powers`) and a small binomial shift per
piece (:func:`power_shift`): the collocation moments, the polynomial
iterates of psi and a polynomial solution in the residual oracle are
products with that table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CurveOrderingError

#: tolerance for curve-ordering violations and tiling checks
ORDER_TOL = 1e-12


def checked_count(name, value, minimum=1):
    """``value`` as an int: a count such as panels, a degree or a segment
    number must be an integer, not a bool, of at least ``minimum``.

    Raises
    ------
    ValueError
        Naming ``name`` otherwise.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def midpoints(lo, hi, panels):
    """Abscissas and common weight of the composite midpoint rule."""
    width = (hi - lo) / panels
    return lo + (np.arange(panels) + 0.5) * width, width


def split_interval(lo, hi, cuts):
    """Split (lo, hi) at the interior points of ``cuts``; returns (lo_i, hi_i) pairs."""
    cuts = np.asarray(cuts, dtype=float)
    inside = cuts[(cuts > lo) & (cuts < hi)]
    edges = np.concatenate(([lo], np.sort(inside), [hi]))
    return [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


@dataclass(frozen=True)
class BandSegment:
    """One band's slice of the integration range (0, t] at a fixed outer time."""

    lo: float
    hi: float
    band: int  # 1-based band index

    @property
    def length(self):
        return self.hi - self.lo

    @property
    def is_empty(self):
        return self.hi <= self.lo


@dataclass(frozen=True)
class BandDecomposition:
    """Ordered band segments tiling (0, t] exactly."""

    t: float
    segments: tuple

    def __iter__(self):
        return iter(self.segments)


def band_edges(times, curves, snap=None):
    """Band edges at a vector of outer times; shape (n_times, n_bands + 1).

    Row r holds 0 = e_0 <= e_1 <= ... <= e_n = times[r]: each curve is
    evaluated once over all times, then clamped so that the band segments
    (e_{j-1}, e_j] tile (0, t] exactly.  Given ``snap`` (the sorted,
    non-empty interior nodes of a pc mesh), a curve value within ``ORDER_TOL`` times
    the horizon of one of those points is first moved onto it, so a curve
    that meets a node in exact arithmetic does so in floating point too
    and opens no sub-ulp piece beside it.

    Raises
    ------
    CurveOrderingError
        If a curve value is not finite, or else drops below its predecessor
        by more than 1e-12; the first offending time (in the order given)
        is named.
    """
    times = np.asarray(times, dtype=float)
    n = curves.n_bands
    values = np.empty((times.size, n + 1))
    values[:, 0] = 0.0
    for j in range(1, n):
        values[:, j] = np.broadcast_to(
            np.asarray(curves.alpha(j, times), dtype=float), times.shape)
    values[:, n] = times
    bad = ~np.isfinite(values[:, 1:n])      # nan passes the test below
    if bad.any():
        r, j = np.argwhere(bad)[0]
        raise CurveOrderingError(
            f"curve {j + 1} is {values[r, j + 1]} at t = {times[r]}")
    below = values[:, 1:] < values[:, :-1] - ORDER_TOL
    if below.any():
        r, j = np.argwhere(below)[0]
        raise CurveOrderingError(
            f"curve {j + 1} is below curve {j} at t = {times[r]}: "
            f"{values[r, j + 1]} < {values[r, j]}"
        )
    edges = values.copy()
    if snap is not None:
        edges[:, 1:n] = _snapped(edges[:, 1:n], snap,
                                 ORDER_TOL * curves.horizon)
    for j in range(1, n):
        # clamp roundoff so the segments tile (0, t] exactly
        edges[:, j] = np.minimum(np.maximum(edges[:, j], edges[:, j - 1]), times)
    return edges


def _snapped(values, points, tol):
    """``values`` with each entry within ``tol`` of a point moved onto it.

    ``points`` must be sorted and non-empty (the interior mesh nodes).
    """
    i = np.searchsorted(points, values)
    above = points[np.minimum(i, points.size - 1)]
    below = points[np.maximum(i - 1, 0)]
    near = np.where(above - values < values - below, above, below)
    return np.where(np.abs(near - values) <= tol, near, values)


def decompose(t, curves):
    """Split (0, t] into band segments delimited by the discontinuity curves.

    ``curves`` needs ``n_bands`` and ``alpha(j, t)`` (with ``alpha(0, t) = 0``
    and ``alpha(n_bands, t) = t``).  Zero-length segments are kept and
    flagged via :attr:`BandSegment.is_empty`.

    Raises
    ------
    CurveOrderingError
        If a curve value drops below its predecessor by more than 1e-12.
    """
    edges = band_edges([float(t)], curves)[0]
    return BandDecomposition(t=float(t), segments=tuple(
        BandSegment(lo=float(edges[j - 1]), hi=float(edges[j]), band=j)
        for j in range(1, curves.n_bands + 1)))


@dataclass(frozen=True)
class BandPlan:
    """Composite midpoint abscissas of one band over a vector of outer times.

    The abscissas form a (pieces, panels) block whose row p is piece p, of
    lower edge ``piece_lo[p]``, panel width ``piece_width[p]`` and outer
    time ``piece_time[p]``; pieces are ordered by time and then along s.
    The block is not stored: :meth:`rows` forms any run of its rows, and
    :attr:`abscissas` all of them, each value lo + ``offsets[k]`` * width
    with ``offsets`` the panel midpoints k + 1/2, the same bits either way.
    """

    band: int  # 1-based band index
    piece_time: np.ndarray
    piece_width: np.ndarray
    piece_lo: np.ndarray
    offsets: np.ndarray

    @property
    def panels(self):
        return self.offsets.size

    @property
    def abscissas(self):
        """The whole (pieces, panels) block, formed afresh."""
        return self.rows(slice(None))

    def rows(self, rows, out=None):
        """The abscissas of the pieces ``rows`` (a slice): a new block, or
        written into ``out``, a block of their shape."""
        # in the order lo + ((k + 0.5) * width), broadcast over the pieces
        x = np.multiply(self.offsets, self.piece_width[rows, None], out=out)
        x += self.piece_lo[rows, None]
        return x

    def piece_sums(self, values):
        """Sum of ``values`` (shaped as the abscissas) per piece."""
        # a row adds in the same (pairwise) order as the piece summed alone
        return values.sum(axis=1)


def powers(u, degree):
    """Powers of the points ``u`` as a (degree + 1,) + u.shape table.

    Row r holds u^r, each row the product of the one before and u.
    """
    table = np.empty((degree + 1,) + u.shape)
    table[0] = 1.0
    for r in range(1, degree + 1):
        np.multiply(table[r - 1], u, out=table[r])
    return table


def reference_powers(panels, degree):
    """Powers of the reference midpoints u_q = (q + 1/2) / panels as a
    (degree + 1, panels) table (:func:`powers`)."""
    return powers((np.arange(panels) + 0.5) / panels, degree)


def power_shift(lo, length, scale, degree):
    """Per piece, the scaled powers in terms of the reference powers.

    A piece s = lo + u * length has (s / scale)^l = sum_r S[l, r] u^r with
    S[l, r] = C(l, r) a^(l - r) b^r, a = lo / scale and b = length /
    scale; for a midpoint plan the length is panels * width.  Returns S as
    (pieces, degree + 1, degree + 1), zero above the diagonal.  For pieces
    inside [0, scale], a, b and u lie in [0, 1], so every term is >= 0
    and the shift adds no cancellation.
    """
    ls = np.arange(degree + 1)
    binomial = np.array([[math.comb(l, r) for r in ls] for l in ls], float)
    a = np.power.outer(np.asarray(lo, float) / scale, ls)
    b = np.power.outer(np.asarray(length, float) / scale, ls)
    # a^(l - r) above the diagonal is a^0, masked by the zero binomials
    return binomial * a[:, np.maximum(ls[:, None] - ls, 0)] * b[:, None, :]


def band_plan(edges, panels, cuts=None):
    """Yield one :class:`BandPlan` per band for every integral over (0, t].

    ``edges`` comes from :func:`band_edges`.  Each non-empty band segment
    is cut at the ``cuts`` strictly inside it, zero-length pieces dropped
    as :func:`split_interval` drops them, and piece p gets lo + (k + 0.5)
    * width for k < ``panels``, as :func:`midpoints` gives it alone.
    """
    cuts = np.sort(np.asarray([] if cuts is None else cuts, dtype=float))
    padded = np.append(cuts, 0.0)  # keeps the discarded lookups below in range
    offsets = np.arange(panels) + 0.5
    for j in range(1, edges.shape[1]):
        seg = np.flatnonzero(edges[:, j] > edges[:, j - 1])
        lo, hi = edges[seg, j - 1], edges[seg, j]
        first = np.searchsorted(cuts, lo, side="right")
        count = np.searchsorted(cuts, hi, side="left") - first + 1
        owner = np.repeat(np.arange(seg.size), count)
        k = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
        c = first[owner] + k
        p_lo = np.where(k == 0, lo[owner], padded[c - 1])
        p_hi = np.where(k == count[owner] - 1, hi[owner], padded[c])
        keep = p_hi > p_lo
        p_lo = p_lo[keep]
        yield BandPlan(band=j, piece_time=seg[owner[keep]],
                       piece_width=(p_hi[keep] - p_lo) / panels,
                       piece_lo=p_lo, offsets=offsets)
