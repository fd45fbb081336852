"""Spans and counts recorded around calls into bandvie, from outside it.

A :class:`Tracer` replaces library functions and methods by wrappers for
the length of a ``with tracer.installed(targets):`` block and restores
them afterwards.  Each wrapper is installed where callers look the name
up: on the module that imported it (``bandvie.cli.iterate``) or on the
class (``LUFactorization.__init__``, ``Expression.__call__``), so every
import site sees it.

Spans record (name, start, end, parent, error) in memory.  Calls of the
hot leaf layers (expression evaluation, quadrature helpers, dense LU) are
not kept one by one: their calls and seconds are summed per parent span.
A leaf may call another (``quadrature.decompose`` evaluates expressions);
the inner call's seconds are taken out of the outer leaf's, so each
second is counted once.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: layers that open no span of their own; summed per parent span
LEAVES = frozenset({
    "expr.call", "quadrature.decompose", "quadrature.midpoints",
    "quadrature.split", "linalg.lu", "linalg.solve",
})

#: the inner solvers' per-iteration entry points
SOLVE_SPANS = ("pc.solve", "collocation.solve")

#: spans that belong to set-up as a whole (problem load and validation)
SETUP_SPANS = ("cli.load", "problem.validate")


def e2e_targets():
    """(span, owner, attribute) triples the end-to-end metrics need.

    They cost a clock read per solve or iteration, not per kernel call.
    """
    from bandvie import cli, collocation, pc

    return [
        ("cli.load", cli, "builtin"),
        ("cli.load", cli, "load_problem"),
        ("problem.validate", cli, "validate"),
        ("newton.iterate", cli, "iterate"),
        ("pc.solve", pc.PCDiscretization, "solve"),
        ("collocation.solve", collocation.CollocationDiscretization, "solve"),
    ]


def layer_targets():
    """Every layer boundary of a traced pass, module by module."""
    from bandvie import cli, collocation, expr, linalg, newton, pc, quadrature

    return e2e_targets() + [
        ("pc.assemble", pc.PCDiscretization, "__init__"),
        ("collocation.assemble", collocation.CollocationDiscretization,
         "__init__"),
        ("newton.plan", newton.PsiEvaluator, "__init__"),
        ("newton.psi", newton.PsiEvaluator, "values"),
        ("newton.norm", newton, "correction_norm"),
        ("report.errors", newton, "measure_errors"),
        ("report.errors", cli, "measure_errors"),
        ("report.serialize", cli, "to_csv"),
        ("problem.residual", cli, "band_quadrature_residual"),
        ("linalg.lu", linalg.LUFactorization, "__init__"),
        ("linalg.solve", linalg.LUFactorization, "solve"),
        ("quadrature.decompose", quadrature, "decompose"),
        ("quadrature.midpoints", quadrature, "midpoints"),
        ("quadrature.split", quadrature, "split_interval"),
        ("expr.call", expr.Expression, "__call__"),
    ]


def _count_points(tracer, args, kwargs):
    # Expression.__call__(self, t=None, s=None, x=None)
    values = list(args[1:]) + list(kwargs.values())
    tracer.counts["expr.points"] += max(
        (np.size(v) for v in values if v is not None), default=1)


def _count_nodes(tracer, args, kwargs):
    # quadrature.midpoints(lo, hi, panels)
    panels = args[2] if len(args) > 2 else kwargs["panels"]
    tracer.counts["quadrature.nodes"] += int(panels)


def _count_matrix(tracer, args, kwargs):
    # LUFactorization.__init__(self, a)
    a = np.ascontiguousarray(args[1] if len(args) > 1 else kwargs["a"],
                             dtype=float)
    tracer.lu_digests.add(hashlib.blake2b(
        a.tobytes() + repr(a.shape).encode(), digest_size=16).digest())
    tracer.lu_n_max = max(tracer.lu_n_max, a.shape[0] if a.ndim else 0)


_COUNTERS = {
    "expr.call": _count_points,
    "quadrature.midpoints": _count_nodes,
    "linalg.lu": _count_matrix,
}


class Tracer:
    """In-memory spans, leaf sums and counts for one pass over a workload."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []              # [name, start, end, parent, error]
        self.leaves = {}             # (parent, name) -> [calls, seconds]
        self.counts = Counter()      # calls per span name plus extra counts
        self.lu_digests = set()
        self.lu_n_max = 0
        self._stack = []
        self._leaf_nested = []       # seconds of leaves inside open leaves

    def wrap(self, name, fn):
        """A stand-in for ``fn`` that records one span (or leaf call)."""
        counter = _COUNTERS.get(name)
        clock = self.clock

        if name in LEAVES:
            def leaf(*args, **kwargs):
                if counter is not None:
                    counter(self, args, kwargs)
                nested = self._leaf_nested
                nested.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds = clock() - start
                    inner = nested.pop()
                    if nested:
                        nested[-1] += seconds
                    self._add_leaf(name, seconds - inner)
            return leaf

        def span(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index][4] = type(exc).__name__
                raise
            finally:
                self._close(index)
        return span

    @contextmanager
    def installed(self, targets):
        """Patch every (span, owner, attribute) target; restore on exit."""
        saved = []
        try:
            for name, owner, attr in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.counts[name] += 1
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def _add_leaf(self, name, seconds):
        self.counts[name] += 1
        key = (self._stack[-1] if self._stack else -1, name)
        entry = self.leaves.get(key)
        if entry is None:
            self.leaves[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds


def self_times(spans, leaves):
    """Seconds per span name, minus the time covered by its children.

    ``spans`` holds (name, start, end, parent, error) records with
    ``parent`` the index of the enclosing span or -1; ``leaves`` maps
    (parent, name) to (calls, seconds).  The pass runs in one thread, so
    the children of a span never overlap and cover the sum of their
    durations.
    """
    covered = [0.0] * len(spans)
    out = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (parent, name), (_, seconds) in leaves.items():
        out[name] += seconds
        if parent >= 0:
            covered[parent] += seconds
    for index, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - covered[index]
    return dict(out)


def top_level_seconds(spans, leaves):
    """Seconds covered by spans and leaf calls that have no parent."""
    return (sum(end - start for _, start, end, parent, _ in spans
                if parent < 0)
            + sum(seconds for (parent, _), (_, seconds) in leaves.items()
                  if parent < 0))


def solve_phases(spans):
    """``(setup, iterations)``: seconds of one pass's units, in run order.

    ``setup`` holds every problem load and validation and, per ``iterate``
    call, the time from its entry to the first inner ``solve``.  An
    iteration runs from one inner ``solve`` to the next, the last one to
    the return (or raise) of ``iterate``.  Together they cover every
    ``iterate`` call and load/validate span of the pass.
    """
    solve_starts = defaultdict(list)
    for name, start, _, parent, _ in spans:
        if name in SOLVE_SPANS:
            solve_starts[parent].append(start)
    setup, iterations = [], []
    for index, (name, start, end, _, _) in enumerate(spans):
        if name in SETUP_SPANS:
            setup.append(end - start)
        elif name == "newton.iterate":
            marks = solve_starts.get(index, []) + [end]
            setup.append(marks[0] - start)
            iterations.extend(b - a for a, b in zip(marks, marks[1:]))
    return setup, iterations


def solve_outcomes(spans):
    """Error class name (or None) of every ``iterate`` call, in call order."""
    return [error for name, _, _, _, error in spans
            if name == "newton.iterate"]
