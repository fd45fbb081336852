"""Direct discretization with piecewise-constant unknowns on a node grid.

At each node t_k the equations are collocated; for every band the part of
the integral above the last fully-known grid segment keeps its step value
as an unknown, everything below is moved to the right-hand side using the
already-computed step values.  Bands sharing an unknown component
accumulate into the same column; a re-visited segment is re-solved and
overwritten (later nodes give equally valid, fresher equations).

The stepping is sequential by construction; distinct solves may run
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import SingularMatrixError, SolverError
from .linalg import LUFactorization
from .problem import ExpressionRhs, VolterraSystem, linearize

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

    def segment_index(self, v):
        """1-based index l of the half-open segment (t_{l-1}, t_l] holding v.

        A value equal to a node t_l belongs to segment l; v = 0 maps to 1.
        """
        v = float(v)
        if v < 0.0 or v > self.horizon * (1 + 1e-12):
            raise ValueError(f"{v} outside [0, {self.horizon}]")
        idx = int(np.searchsorted(self.nodes, min(v, self.horizon), side="left"))
        return max(idx, 1)

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


def initial_values(lin, rhs=None):
    """Start values x(0) from the differentiated equations at t = 0.

    Solves ``sum_j Ktilde_ij(0,0) (alpha'_j(0) - alpha'_{j-1}(0)) x_{u(j)}(0)
    = rhs'(0)`` with columns of shared unknowns accumulated.  Accepts a
    plain :class:`VolterraSystem` (frozen along its initial guess, right-hand
    side f) or a :class:`LinearizedSystem` plus an explicit right-hand side.
    """
    if isinstance(lin, VolterraSystem):
        system = lin
        lin = linearize(system)
        rhs = ExpressionRhs(system) if rhs is None else rhs
    elif rhs is None:
        rhs = ExpressionRhs(lin.system)
    return lin.start_values(rhs.derivative_at_zero())


@dataclass
class _BandPlan:
    component: int          # 1-based unknown component
    segment: int            # 1-based mesh segment holding alpha_j(t_k)
    coeff: np.ndarray       # (n_eq,) integral of Ktilde over the unknown range
    hist_segments: np.ndarray  # segment index per history piece
    hist_weights: np.ndarray   # (n_eq, n_pieces) integrals of Ktilde per piece


class PCDiscretization:
    """Iterate-independent discretization of a linearized system on a mesh.

    Everything that does not depend on the right-hand side (per-step
    coefficient integrals, history piece weights) is assembled once here;
    :meth:`solve` then only consumes a right-hand side, so an outer
    iteration reuses the same operator at every step.
    """

    def __init__(self, lin, mesh, panels=quadrature.DEFAULT_PANELS,
                 history_panels=HISTORY_PANELS):
        if abs(mesh.horizon - lin.curves.horizon) > 1e-12 * max(1.0, lin.curves.horizon):
            raise ValueError("mesh horizon differs from the problem horizon")
        self.lin = lin
        self.mesh = mesh
        self.panels = int(panels)
        self.history_panels = int(history_panels)
        self._plans = self._assemble()

    def _assemble(self):
        lin = self.lin
        mesh = self.mesh
        times = mesh.nodes[1:]
        n_steps = mesh.n_segments
        edges = quadrature.band_edges(times, lin.curves)
        # mesh segment l holding alpha_j(t_k); the step value there is unknown
        segments = mesh.segment_indices(edges[:, 1:])
        plans = [[] for _ in range(n_steps)]
        for pieces in quadrature.band_pieces(edges, cuts=mesh.nodes[1:-1]):
            j = pieces.band
            comp = lin.unknown_of_band[j - 1]
            # the last piece of a segment is the unknown range
            # (max(t_{l-1}, alpha_{j-1}), alpha_j]; the pieces before it end
            # on mesh nodes and carry history
            last = np.diff(pieces.time_index, append=-1) != 0
            coeff_plan = quadrature.midpoint_plan(pieces.take(last), self.panels)
            hist_plan = quadrature.midpoint_plan(pieces.take(~last),
                                                 self.history_panels)
            s = np.concatenate((coeff_plan.abscissas, hist_plan.abscissas))
            step = np.concatenate((coeff_plan.time_index, hist_plan.time_index))
            tv = times[step]
            split = coeff_plan.abscissas.size
            coeff = np.zeros((n_steps, lin.n_equations))
            weights = np.empty((lin.n_equations, hist_plan.piece_time.size))
            kvs, gvs = lin.frozen_factors(j, tv, s)
            for i in range(lin.n_equations):
                vals = kvs[i] * gvs[i]
                coeff[coeff_plan.piece_time, i] = coeff_plan.piece_sums(
                    vals[:split]) * coeff_plan.piece_width
                weights[i] = hist_plan.piece_sums(
                    vals[split:]) * hist_plan.piece_width
            hist_segments = mesh.segment_indices(pieces.hi[~last])
            bounds = np.searchsorted(hist_plan.piece_time, np.arange(n_steps + 1))
            for k in range(n_steps):
                lo, hi = bounds[k], bounds[k + 1]
                plans[k].append(_BandPlan(
                    component=comp, segment=int(segments[k, j - 1]),
                    coeff=coeff[k], hist_segments=hist_segments[lo:hi],
                    hist_weights=np.ascontiguousarray(weights[:, lo:hi])))
        return plans

    def solve(self, rhs):
        """Solve for the step values given a right-hand side object."""
        lin = self.lin
        mesh = self.mesh
        n_eq = lin.n_equations
        n_comp = lin.n_components
        start = lin.start_values(rhs.derivative_at_zero())

        rhs_values = np.asarray(rhs.values(mesh.nodes[1:]), dtype=float)
        if rhs_values.shape != (n_eq, mesh.n_segments):
            raise SolverError(
                f"right-hand side returned shape {rhs_values.shape}, "
                f"expected {(n_eq, mesh.n_segments)}")

        values = np.full((n_comp, mesh.n_segments), np.nan)
        frontier = np.zeros(n_comp, dtype=int)
        for k in range(1, mesh.n_segments + 1):
            band_plans = self._plans[k - 1]
            active = {}
            for plan in band_plans:
                u = plan.component
                active[u] = max(active.get(u, 0), plan.segment)
            mat = np.zeros((n_eq, n_comp))
            b = rhs_values[:, k - 1].copy()
            for plan in band_plans:
                u = plan.component
                if plan.segment == active[u]:
                    mat[:, u - 1] += plan.coeff
                elif np.any(plan.coeff != 0.0):
                    known = values[u - 1, plan.segment - 1]
                    if np.isnan(known):
                        raise SolverError(
                            f"step {k}: band mapped to component {u} refers "
                            f"to segment {plan.segment} before it was "
                            f"assigned (band map {lin.unknown_of_band})")
                    b -= plan.coeff * known
                if plan.hist_segments.size:
                    hist_vals = values[u - 1][plan.hist_segments - 1]
                    if np.any(np.isnan(hist_vals)):
                        missing = int(plan.hist_segments[
                            np.argmax(np.isnan(hist_vals))])
                        raise SolverError(
                            f"step {k}: history for component {u} needs "
                            f"segment {missing} which was never assigned")
                    b -= plan.hist_weights @ hist_vals
            try:
                x = LUFactorization(mat).solve(b)
            except SingularMatrixError as exc:
                raise SolverError(
                    f"singular step system at node {k} "
                    f"(t = {mesh.nodes[k]:.6g}): {exc}") from exc
            for u, l in active.items():
                if l > frontier[u - 1] + 1:
                    raise SolverError(
                        f"step {k}: component {u} jumps from segment "
                        f"{frontier[u - 1]} to {l}; the mesh is too coarse "
                        f"for the curve speed")
                values[u - 1, l - 1] = x[u - 1]
                frontier[u - 1] = max(frontier[u - 1], l)
        domains = [lin.system.component_domain(i)
                   for i in range(1, n_comp + 1)]
        return PiecewiseConstantSolution(mesh, start, values, domains)


def solve_linear_pc(lin, rhs=None, n_segments=64,
                    panels=quadrature.DEFAULT_PANELS,
                    history_panels=HISTORY_PANELS):
    """One-shot piecewise-constant solve of a linearized system.

    ``rhs`` defaults to the system's own f.  ``n_segments`` is the number
    of uniform mesh segments on [0, T].
    """
    if isinstance(lin, VolterraSystem):
        if rhs is None:
            rhs = ExpressionRhs(lin)
        lin = linearize(lin)
    elif rhs is None:
        rhs = ExpressionRhs(lin.system)
    mesh = Mesh.uniform(lin.curves.horizon, n_segments)
    disc = PCDiscretization(lin, mesh, panels=panels,
                            history_panels=history_panels)
    return disc.solve(rhs)
