"""Direct discretization with piecewise-constant unknowns on a node grid.

At each node t_k the equations are collocated; for every band the part of
the integral above the last fully-known grid segment keeps its step value
as an unknown, everything below is moved to the right-hand side using the
already-computed step values.  Bands sharing an unknown component
accumulate into the same column; a re-visited segment is re-solved and
overwritten (later nodes give equally valid, fresher equations).

Every integral is summed on one plan per band of the segments cut at the
mesh nodes (:func:`quadrature.band_plan`): the last piece of a step is its
unknown range and gives the step coefficients, the pieces before it the
history weights.  The frozen kernel A is formed on that plan one equation
at a time, in row blocks, into one buffer reused by every pair and band
(:meth:`LinearizedSystem.frozen_pairs`), which also adds psi at the guess
into f.  The discretization sums its own share of psi on the same plan,
and the outer iteration adds f (:meth:`PCDiscretization.add_psi`).  A
step iterate is one value per piece, so it keeps, per band with a pair
whose G is not x, the row sums of A and of K, K itself only for a G with
s, and nothing of it changes after set-up (:class:`_PsiBand`).

The step systems depend on the frozen operator only, not on the
right-hand side psi, which a solve takes as an array at the nodes
t_1..t_N with its d/dt at 0; so the constructor builds the step operator
(:meth:`PCDiscretization._step_operator`): the step matrices of all
steps, factorized in one stacked elimination and inverted, and per
step its reads of known step values, merged over the bands into one
index array and one weight block with the step inverse applied.  The
step faults (a segment read before it is assigned, a history segment
never assigned, a singular step matrix, a jump of more than one segment)
are checked as masks, and the first in node order is raised.  Every
solve then takes one gather, one product and one scatter per step, and
distinct solves may run concurrently.  Band edges within roundoff of a
mesh node are moved onto it, so a curve that meets a node in exact
arithmetic leaves no sub-ulp unknown range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import quadrature
from .errors import SingularMatrixError, SolverError
from .linalg import lu_factor_stack, lu_inverse_stack
from .problem import PsiBand, f_at_times, linearize, rhs_at_nodes

#: panels per piece, unknown range or history (each piece spans at most one
#: mesh segment, so a handful of panels keeps the quadrature error at O(h^2))
PIECE_PANELS = 4

#: a step iterate is one reference power, u^0, per piece
_STEP_POWERS = quadrature.reference_powers(PIECE_PANELS, 0)


@dataclass(frozen=True)
class Mesh:
    """Strictly increasing nodes t_0 = 0 < ... < t_N = T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("mesh needs at least nodes t_0 < t_1 < t_2")
        # NaN fails every comparison, and increasing from 0 ends below inf
        if not (nodes[0] == 0.0 and np.all(np.diff(nodes) > 0.0)
                and nodes[-1] < np.inf):
            raise ValueError("mesh nodes must be finite, start at 0 and "
                             "strictly increase")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, horizon, n_segments):
        n_segments = quadrature.checked_count("n_segments", n_segments, 2)
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

    def plan_values(self, i, plan):
        """Component i on the pieces of a band ``plan``, as
        :meth:`bandvie.problem.ExpressionIterate.plan_values`: a (rows, 1)
        column, the value of each piece's first abscissa.

        On a plan cut at the mesh nodes, as the residual oracle's are, a
        piece lies in one segment, or is a few ulps long beside a node,
        with some abscissas rounded onto the node and the others above
        it.  So a piece whose first and last abscissas read one value
        reads it at every abscissa; a block with a piece that does not is
        read at every abscissa.
        """
        first, last = (
            self.component_values(i, plan.offsets[q] * plan.piece_width
                                  + plan.piece_lo) for q in (0, -1))
        split = first != last
        column = first[:, None]

        def values(rows, s):
            if split[rows].any():
                return self.component_values(i, s)
            return column[rows]
        return values

    def value_at_zero(self, i):
        return float(self.start[i - 1])

    def breakpoints_in(self, lo, hi):
        nodes = self.mesh.nodes
        return nodes[(nodes > lo) & (nodes < hi)]


class _PsiBand(PsiBand):
    """A :class:`~bandvie.problem.PsiBand` of a pc plan, its ``weights``
    the row sums of K, None for a G with s: a time owns several pieces,
    consecutive, each in the 0-based mesh ``segment``; ``runs`` holds the
    first piece of each time that owns one, and ``times`` that time."""

    def __init__(self, plan, lin, kept, weights, segment):
        super().__init__(plan, lin, kept, any(w is None for w in weights))
        self.weights = weights
        self.segment = segment
        self.runs = np.flatnonzero(np.diff(plan.piece_time, prepend=-1))
        self.times = plan.piece_time[self.runs]


class _StepOperator(NamedTuple):
    """The frozen step operator: each step as one gather, product and scatter.

    Step values live in one flat (n_comp * N) buffer, segment l of
    component u (both 0-based) at u * N + l.  Step k (0-based) writes its
    solved components at the flat positions ``out[k]``, their active
    segments; ``inverse[k]`` holds those components' rows of the inverse
    of its step matrix.  ``terms[k] = (idx, weights)`` holds the flat
    positions of every known step value the step reads (the known
    segments and history pieces of all bands, merged in band order) and
    their (len(out[k]), q_k) weights, ``inverse[k]`` already applied.  A
    solve sets ``values[out[k]] = inverse[k] @ psi_k - weights @
    values[idx]``.
    """

    out: np.ndarray
    inverse: np.ndarray
    terms: list


class PCDiscretization:
    """Iterate-independent discretization of a linearized system on a mesh.

    Everything that does not depend on the right-hand side is built here,
    once: the per-step coefficients and history piece weights, with what
    psi reads of their plan (:meth:`add_psi`), :attr:`f` and
    :attr:`psi_at_guess` at :attr:`times`, (n_eq, N) and read-only, and
    the step operator (:attr:`_steps`).  The first step fault raises
    :class:`SolverError`.  :meth:`solve` takes psi at :attr:`times` and
    its d/dt at 0.
    """

    def __init__(self, lin, mesh):
        if abs(mesh.horizon - lin.curves.horizon) > 1e-12 * max(1.0, lin.curves.horizon):
            raise ValueError("mesh horizon differs from the problem horizon")
        self.lin = lin
        self.mesh = mesh
        #: the collocation times t_1..t_N, where :meth:`solve` takes psi
        self.times = mesh.nodes[1:]
        self.f = f_at_times(lin.system, self.times)
        self.f.flags.writeable = False
        bands, self._psi, self.psi_at_guess = self._assemble()
        self._steps = self._step_operator(bands)

    def _assemble(self):
        """Per band ``(u, segments, coeff, hist, size, weights)``; per band
        with a pair whose G is not x the :class:`_PsiBand` psi sums on;
        psi at the guess, read-only.

        Each band is planned by :func:`quadrature.band_plan`, cut at the
        nodes, on ``PIECE_PANELS`` panels per piece, and evaluated once,
        pair by pair into one buffer.  Per step k: segments[k-1] is the
        1-based mesh segment holding alpha_j(t_k), whose step value is
        unknown, and coeff[k-1] the (n_eq,) integrals of Ktilde over the
        unknown range, its last piece.  The history pieces, in step order,
        ``size[k-1]`` of them at step k, have a 0-based segment in
        ``hist`` and their integrals in the (n_eq, pieces) ``weights``.
        """
        lin, mesh = self.lin, self.mesh
        n_steps, n_eq = mesh.n_segments, lin.n_equations
        cuts = mesh.nodes[1:-1]
        edges = quadrature.band_edges(self.times, lin.curves, snap=cuts)
        segments = mesh.segment_indices(edges[:, 1:])
        bands, psi = [None] * lin.n_bands, []
        plans = list(quadrature.band_plan(edges, PIECE_PANELS, cuts))
        buffer = np.empty(2 * PIECE_PANELS * max(
            plan.piece_lo.size for plan in plans))
        guess = self.f.copy()
        for plan in plans:
            j = plan.band
            weights = np.empty((n_eq, plan.piece_lo.size))
            kept, row_sums = [], []
            for i, a, kernel in lin.frozen_pairs(plan, self.times, buffer,
                                                 guess):
                weights[i] = plan.piece_sums(a) * plan.piece_width
                if kernel is not None:      # psi sums this pair
                    g = lin.system.nonlinearities[i][j - 1]
                    w = None if "s" in g.free_variables else kernel.sum(axis=1)
                    kept.append((i, kernel if w is None else None,
                                 a @ _STEP_POWERS.T))
                    row_sums.append(w)
            # the last piece of a segment is the unknown range
            # (max(t_{l-1}, alpha_{j-1}), alpha_j]; the pieces before it end
            # on mesh nodes and carry history
            last = np.diff(plan.piece_time, append=-1) != 0
            coeff = np.zeros((n_steps, n_eq))
            coeff[plan.piece_time[last]] = weights[:, last].T
            # a piece lies in the segment of its lower edge
            segment = np.searchsorted(mesh.nodes, plan.piece_lo, "right") - 1
            bands[j - 1] = (
                lin.unknown_of_band[j - 1], segments[:, j - 1], coeff,
                segment[~last],
                np.bincount(plan.piece_time[~last], minlength=n_steps),
                weights[:, ~last])
            if kept and plan.piece_width.size:
                psi.append(_PsiBand(plan, lin, kept, row_sums,
                                    segment.astype(np.int32)))
        guess.flags.writeable = False
        return bands, psi, guess

    def add_psi(self, out, iterate):
        """Add this solver's share of psi at :attr:`times` into ``out``,
        f there, shape (n_eq, N): per node the sum over its pieces of w *
        (sum A * xm - sum K * G(xm)), w the panel width.

        ``iterate`` is a :class:`PiecewiseConstantSolution` on this mesh:
        D_k, its value on the segment of piece k, gives sum A * xm = D_k *
        R_k and, for a G free of s, sum K * G(xm) = G(D_k) times the row
        sums of K; a G with s is summed on the plan.  Any other iterate,
        the linearization point too (its psi is :attr:`psi_at_guess`),
        raises :class:`SolverError` and changes nothing.  With no band to
        sum, psi is f, for any iterate.
        """
        if not self._psi:
            return
        if not (isinstance(iterate, PiecewiseConstantSolution)
                and np.array_equal(iterate.mesh.nodes[1:], self.times)):
            got = type(iterate).__name__
            if isinstance(iterate, PiecewiseConstantSolution):
                got += f" on a mesh of {iterate.mesh.n_segments} segments"
            raise SolverError(f"pc psi takes steps on its mesh of "
                              f"{self.times.size} segments, got {got}")
        for band in self._psi:
            d = iterate.values[band.component - 1][band.segment, None]
            for i, rows in band.pair_rows(d, _STEP_POWERS):
                # the pieces of a time are summed (pairwise) before f is
                # added: on pc iterates this rounds about 3x closer to an
                # exact sum than adding them to f one by one
                out[i, band.times] += np.add.reduceat(rows, band.runs)

    def _step_operator(self, bands):
        """The :class:`_StepOperator`, built from the arrays of ``bands``.

        Per step and component the active segment is the highest segment
        of its bands; the frontier before a step, the running maximum of
        the earlier active segments, says that component u holds segments
        1..frontier.  Band by band, in band order, a band on its
        component's active segment adds its coefficients to the step
        matrix, and any other band with a nonzero coefficient reads a
        known segment.  Four step faults are checked as masks over the
        steps, and the first in node order is raised; within a node they
        come band by band (a known segment beyond the frontier, then a
        history segment beyond it), then a singular step matrix, then
        component by component a jump of more than one segment.  The
        step matrices up to that node are factorized in one stacked
        elimination, and without a fault inverted from the factors.
        """
        lin, nodes = self.lin, self.mesh.nodes
        n_steps = self.mesh.n_segments
        comps = np.array(list(dict.fromkeys(band[0] for band in bands))) - 1
        active = np.zeros((n_steps, lin.n_components), dtype=int)
        for u, segments, *_ in bands:
            np.maximum(active[:, u - 1], segments, out=active[:, u - 1])
        frontier = np.zeros_like(active)
        np.maximum.accumulate(active[:-1], axis=0, out=frontier[1:])

        mats = np.zeros((n_steps, lin.n_equations, lin.n_components))
        faults = []   # (first step, rank within a node, message)
        known = []    # per band, the steps that read its segment as known
        for rank, (u, segments, coeff, hist, size, _) in enumerate(bands):
            front = frontier[:, u - 1]
            on = segments == active[:, u - 1]
            mats[on, :, u - 1] += coeff[on]
            known.append(~on & np.any(coeff != 0.0, axis=1))
            ahead = np.flatnonzero(known[-1] & (segments > front))
            if ahead.size:
                k = ahead[0]
                faults.append((k, 2 * rank, (
                    f"step {k + 1}: band mapped to component {u} refers to "
                    f"segment {segments[k]} before it was assigned "
                    f"(band map {lin.unknown_of_band})")))
            gap = np.flatnonzero(hist >= np.repeat(front, size))
            if gap.size:
                k = np.repeat(np.arange(n_steps), size)[gap[0]]
                faults.append((k, 2 * rank + 1, (
                    f"step {k + 1}: history for component {u} needs segment "
                    f"{hist[gap[0]] + 1} which was never assigned")))
        singular_rank = 2 * len(bands)
        for rank, c in enumerate(comps, start=singular_rank + 1):
            jump = np.flatnonzero(active[:, c] > frontier[:, c] + 1)
            if jump.size:
                k = jump[0]
                faults.append((k, rank, (
                    f"step {k + 1}: component {c + 1} jumps from segment "
                    f"{frontier[k, c]} to {active[k, c]}; the mesh is too "
                    f"coarse for the curve speed")))
        first = min(faults, default=(n_steps, 0, None))
        try:
            lu, perm = lu_factor_stack(
                mats[:first[0] + (first[1] > singular_rank)])
        except SingularMatrixError as exc:
            k = exc.index + 1
            raise SolverError(
                f"singular step system at node {k} "
                f"(t = {nodes[k]:.6g}): {exc}") from exc
        if first[2] is not None:
            raise SolverError(first[2])
        inverse = lu_inverse_stack(lu, perm)[:, comps]
        idx, weights, reads = self._merged_terms(bands, known)
        # apply each step's inverse rows to its weights once
        folded = np.zeros((comps.size, idx.size))
        for r, j in np.ndindex(inverse.shape[1:]):
            folded[r] += np.repeat(inverse[:, r, j], reads) * weights[j]
        cut = np.append(0, np.cumsum(reads)).tolist()
        return _StepOperator(
            comps * n_steps + active[:, comps] - 1, inverse,
            [(idx[lo:hi], folded[:, lo:hi])
             for lo, hi in zip(cut[:-1], cut[1:])])

    def _merged_terms(self, bands, known):
        """Every step's reads of known step values, all bands merged.

        Returns the flat positions ``idx``, their (n_eq, reads) ``weights``
        and the number of reads of each step.  A step's reads come band by
        band: the band's known segment if ``known`` says it reads one
        (weight: its coefficients), then its history pieces.
        """
        n_steps = self.mesh.n_segments
        counts = np.array([reads + band[4]
                           for reads, band in zip(known, bands)]).T
        ends = np.cumsum(counts)
        begin = (ends - counts.ravel()).reshape(counts.shape)
        idx = np.empty(ends[-1], dtype=np.intp)
        weights = np.empty((self.lin.n_equations, idx.size))
        for b, (reads, (u, segments, coeff, hist, size, hist_w)) in enumerate(
                zip(known, bands)):
            base = (u - 1) * n_steps
            at = begin[reads, b]
            idx[at] = base + segments[reads] - 1
            weights[:, at] = coeff[reads].T
            # the pieces of a step follow its known segment, in order
            at = np.repeat(begin[:, b] + reads + size - np.cumsum(size), size)
            at += np.arange(hist.size)
            idx[at] = base + hist
            weights[:, at] = hist_w
        return idx, weights, counts.sum(axis=1)

    def solve(self, psi, dpsi0):
        """Step values for psi at :attr:`times`, shape (n_eq, N), with
        d(psi)/dt at 0, shape (n_eq,), giving the start values."""
        lin, mesh = self.lin, self.mesh
        start = lin.start_values(dpsi0)
        psi = rhs_at_nodes(psi, self.times, lin.n_equations)
        op = self._steps
        # segments beyond a component's domain are never assigned
        values = np.full(lin.n_components * mesh.n_segments, np.nan)
        for out, y, (idx, weights) in zip(
                op.out, np.einsum("kri,ik->kr", op.inverse, psi),
                op.terms):
            values[out] = y - weights @ values[idx]
        return PiecewiseConstantSolution(
            mesh, start, values.reshape(lin.n_components, mesh.n_segments),
            lin.system.component_domains())


def solve_linear_pc(system, n_segments=64):
    """One-shot piecewise-constant solve of a system with its own f.

    The kernels are frozen along the initial guess.  ``n_segments`` is the
    number of uniform mesh segments on [0, T].
    """
    mesh = Mesh.uniform(system.curves.horizon, n_segments)
    disc = PCDiscretization(linearize(system), mesh)
    return disc.solve(disc.f, disc.lin.f_prime_at_zero)
