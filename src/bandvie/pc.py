"""Direct discretization with piecewise-constant unknowns on a node grid.

At each node t_k the equations are collocated; for every band the part of
the integral above the last fully-known grid segment keeps its step value
as an unknown, everything below is moved to the right-hand side using the
already-computed step values.  Bands sharing an unknown component
accumulate into the same column; a re-visited segment is re-solved and
overwritten (later nodes give equally valid, fresher equations).

The step systems depend on the frozen operator only, not on the
right-hand side, so each discretization assembles and factorizes them
once, at its first solve; every solve then gathers the known step values,
solves and scatters, step by step.

The stepping is sequential by construction; distinct solves may run
concurrently (two first solves may both build the step operator; the
builds are equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quadrature
from .errors import SingularMatrixError, SolverError
from .linalg import LUFactorization
from .problem import linear_problem, rhs_at_nodes

#: panels for the per-piece history integrals (each piece spans at most one
#: mesh segment, so a handful of panels keeps the quadrature error at O(h^2))
HISTORY_PANELS = 4


@dataclass(frozen=True)
class Mesh:
    """Strictly increasing nodes t_0 = 0 < ... < t_N = T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("mesh needs at least nodes t_0 < t_1 < t_2")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("mesh nodes must start at 0 and strictly increase")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, horizon, n_segments):
        if n_segments < 2:
            raise ValueError("need at least 2 segments")
        return cls(np.linspace(0.0, float(horizon), n_segments + 1))

    @property
    def horizon(self):
        return float(self.nodes[-1])

    @property
    def n_segments(self):
        return self.nodes.size - 1

    @property
    def h(self):
        return float(np.max(np.diff(self.nodes)))

    def segment_indices(self, vs):
        vs = np.asarray(vs, dtype=float)
        idx = np.searchsorted(self.nodes, vs, side="left")
        return np.clip(idx, 1, self.n_segments)


class PiecewiseConstantSolution:
    """Step-function solution: start values at t = 0 plus one value per segment."""

    def __init__(self, mesh, start, values, component_domains):
        self.mesh = mesh
        self.start = np.asarray(start, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.component_domains = tuple(component_domains)
        self.n_components = self.start.size

    def component_values(self, i, ts):
        """Values of component i at the points ts (vectorized)."""
        ts = np.asarray(ts, dtype=float)
        idx = self.mesh.segment_indices(ts)
        out = self.values[i - 1][idx - 1]
        return np.where(ts == 0.0, self.start[i - 1], out)

    def value_at_zero(self, i):
        return float(self.start[i - 1])

    def breakpoints_in(self, lo, hi):
        nodes = self.mesh.nodes
        return nodes[(nodes > lo) & (nodes < hi)]


class PCDiscretization:
    """Iterate-independent discretization of a linearized system on a mesh.

    Everything that does not depend on the right-hand side is built once per
    discretization: the per-step coefficient integrals and history piece
    weights here, and at the first :meth:`solve` the step operator.  It
    holds every step matrix, factorized once per discretization, the band
    terms that move known step values to the right-hand side, and the step
    values each step writes.  Every solve then only gathers, solves and
    scatters at each step.
    """

    def __init__(self, lin, mesh, panels=quadrature.DEFAULT_PANELS):
        if abs(mesh.horizon - lin.curves.horizon) > 1e-12 * max(1.0, lin.curves.horizon):
            raise ValueError("mesh horizon differs from the problem horizon")
        self.lin = lin
        self.mesh = mesh
        self.panels = int(panels)
        self._bands = self._assemble()

    def _assemble(self):
        """Per band ``(u, segments, coeff, hist_segments, hist_weights, bounds)``.

        Per step k: segments[k-1] is the 1-based mesh segment holding
        alpha_j(t_k), whose step value is unknown, and coeff[k-1] the (n_eq,)
        integrals of Ktilde over the unknown range; the history pieces
        bounds[k-1]:bounds[k] have a segment and (n_eq,) weights each.
        """
        lin = self.lin
        mesh = self.mesh
        times = mesh.nodes[1:]
        n_steps = mesh.n_segments
        edges = quadrature.band_edges(times, lin.curves)
        segments = mesh.segment_indices(edges[:, 1:])
        bands = []
        for pieces in quadrature.band_pieces(edges, cuts=mesh.nodes[1:-1]):
            j = pieces.band
            # the last piece of a segment is the unknown range
            # (max(t_{l-1}, alpha_{j-1}), alpha_j]; the pieces before it end
            # on mesh nodes and carry history
            last = np.diff(pieces.time_index, append=-1) != 0
            coeff_plan = quadrature.midpoint_plan(pieces.take(last), self.panels)
            hist_plan = quadrature.midpoint_plan(pieces.take(~last),
                                                 HISTORY_PANELS)
            coeff = np.zeros((n_steps, lin.n_equations))
            coeff[coeff_plan.piece_time] = self._piece_integrals(
                times, coeff_plan).T
            weights = self._piece_integrals(times, hist_plan)
            bands.append((
                lin.unknown_of_band[j - 1], segments[:, j - 1], coeff,
                mesh.segment_indices(pieces.hi[~last]), weights,
                np.searchsorted(hist_plan.piece_time, np.arange(n_steps + 1))))
        return bands

    def _piece_integrals(self, times, plan):
        """(n_eq, pieces) integrals of the frozen kernel over each piece."""
        avs = self.lin.frozen_factors(
            plan.band, times[plan.piece_time, None], plan.abscissas)[2]
        return np.array([plan.piece_sums(a) * plan.piece_width for a in avs])

    @cached_property
    def _steps(self):
        """Per step ``(fact, terms, rows, cols)``, built on the first solve.

        ``fact`` factorizes the step matrix; per band, in band order, a term
        ``(u, known, coeff, hist, weights)`` holds the component, the segment
        whose known value times coeff leaves the right-hand side (or None) and
        the history segments with their weights, all 0-based; the solution
        goes to ``values[rows, cols]``.  Structural faults come from the
        assignment frontier: component u holds segments 1..frontier[u-1].
        """
        lin = self.lin
        frontier = np.zeros(lin.n_components, dtype=int)
        steps = []
        for k in range(1, self.mesh.n_segments + 1):
            active = {}
            for u, segments, *_ in self._bands:
                active[u] = max(active.get(u, 0), int(segments[k - 1]))
            mat = np.zeros((lin.n_equations, lin.n_components))
            terms = []
            for u, segments, coeff, hist_segments, weights, bounds in self._bands:
                l, known = int(segments[k - 1]), None
                if l == active[u]:
                    mat[:, u - 1] += coeff[k - 1]
                elif np.any(coeff[k - 1] != 0.0):
                    if l > frontier[u - 1]:
                        raise SolverError(
                            f"step {k}: band mapped to component {u} refers "
                            f"to segment {l} before it was assigned "
                            f"(band map {lin.unknown_of_band})")
                    known = l - 1
                lo, hi = bounds[k - 1], bounds[k]
                hist = hist_segments[lo:hi]
                if np.any(hist > frontier[u - 1]):
                    raise SolverError(
                        f"step {k}: history for component {u} needs segment "
                        f"{hist[hist > frontier[u - 1]][0]} which was never "
                        f"assigned")
                terms.append((u - 1, known, coeff[k - 1], hist - 1,
                              np.ascontiguousarray(weights[:, lo:hi])))
            try:
                fact = LUFactorization(mat)
            except SingularMatrixError as exc:
                raise SolverError(
                    f"singular step system at node {k} "
                    f"(t = {self.mesh.nodes[k]:.6g}): {exc}") from exc
            for u, l in active.items():
                if l > frontier[u - 1] + 1:
                    raise SolverError(
                        f"step {k}: component {u} jumps from segment "
                        f"{frontier[u - 1]} to {l}; the mesh is too coarse "
                        f"for the curve speed")
                frontier[u - 1] = max(frontier[u - 1], l)
            rows, cols = np.array(list(active.items())).T - 1
            steps.append((fact, terms, rows, cols))
        return steps

    def solve(self, rhs):
        """Solve for the step values given a right-hand side object."""
        lin, mesh = self.lin, self.mesh
        start = lin.start_values(rhs.derivative_at_zero())
        rhs_values = rhs_at_nodes(rhs, mesh.nodes[1:], lin.n_equations)
        # segments beyond a component's domain are never assigned
        values = np.full((lin.n_components, mesh.n_segments), np.nan)
        for k, (fact, terms, rows, cols) in enumerate(self._steps):
            b = rhs_values[:, k].copy()
            for u, known, coeff, hist, weights in terms:
                if known is not None:
                    b -= coeff * values[u, known]
                if hist.size:
                    b -= weights @ values[u, hist]
            values[rows, cols] = fact.solve(b)[rows]
        return PiecewiseConstantSolution(mesh, start, values,
                                         lin.system.component_domains())


def solve_linear_pc(lin, rhs=None, n_segments=64,
                    panels=quadrature.DEFAULT_PANELS):
    """One-shot piecewise-constant solve of a linearized system.

    ``rhs`` defaults to the system's own f.  ``n_segments`` is the number
    of uniform mesh segments on [0, T].
    """
    lin, rhs = linear_problem(lin, rhs)
    mesh = Mesh.uniform(lin.curves.horizon, n_segments)
    disc = PCDiscretization(lin, mesh, panels=panels)
    return disc.solve(rhs)
