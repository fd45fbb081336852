"""Compositions of library calls that only the tests use."""

import numpy as np

from bandvie import quadrature
from bandvie.collocation import (
    DEFAULT_MOMENT_PANELS,
    CollocationDiscretization,
    PolynomialSolution,
    flatten_index,
)
from bandvie.linalg import LUFactorization, lu_factor_stack, refined_solve
from bandvie.newton import NORM_SAMPLES, PsiEvaluator
from bandvie.pc import PIECE_PANELS, PCDiscretization
from bandvie.problem import (
    CurveFamily,
    VolterraSystem,
    f_at_times,
    linearize,
    rhs_at_nodes,
)
from bandvie.quadrature import midpoints
from bandvie.report import ERROR_SAMPLES


def unflatten_index(r, m):
    """Inverse of :func:`bandvie.collocation.flatten_index`."""
    return r // m + 1, r % m + 1


def empty_band_system():
    """Three bands with alpha_1 = alpha_2 = t/2: band 2 is empty at every
    t, band 3, whose G_1,3 = x^2 adds to psi, is not."""
    return VolterraSystem(
        curves=CurveFamily(1.0, ("t/2", "t/2")),
        kernels=[["1+t+s", "2", "1"], ["1+t-s", "-1", "3"]],
        nonlinearities=[["x", "x", "x^2"], ["x", "x", "x"]],
        rhs=["t", "t^2"], unknown_of_band=(1, 2, 2), guess=["1+t", "t"])


def repeated_curve_system():
    """Three bands, the middle one of zero length at every t."""
    return VolterraSystem(
        curves=CurveFamily(1.0, ("t/2", "t/2")),
        kernels=[["1+t+s", "3", "1"], ["1+t-s", "5", "-1"]],
        nonlinearities=[["x", "x", "x^2"], ["x", "x", "x"]],
        rhs=["t", "t^2"], unknown_of_band=(1, 1, 2), guess=["1+t", "t"])


def nan_curve_system():
    """One equation over two bands of one unknown whose curve alpha_1 =
    t/2 + t^2 sqrt(0.5 - t)/10 is nan for t > 0.5, where every test of
    the curve ordering is False."""
    return VolterraSystem(
        curves=CurveFamily(1.0, ("t/2+t^2*sqrt(0.5-t)/10",)),
        kernels=[["1", "2"]], nonlinearities=[["x", "x"]], rhs=["t"],
        unknown_of_band=(1, 1))


def residual_reference(system, solution, t, panels=2000, magnitude=False):
    """:func:`~bandvie.problem.band_quadrature_residual` on each whole
    (pieces, panels) plan at once, the solution read at every abscissa:
    the values the blocked oracle must give.  With ``magnitude``, the sum
    of the magnitudes of its terms, |f| and w * |K * G|, instead."""
    t = np.asarray(t, dtype=float)
    times = t.ravel()
    cuts = solution.breakpoints_in(0.0, system.curves.horizon)
    plans = quadrature.band_plan(quadrature.band_edges(times, system.curves),
                                 -(-panels // (cuts.size + 1)), cuts)
    sign = np.abs if magnitude else np.negative
    index = [np.arange(times.size)]
    terms = [[sign(np.broadcast_to(np.asarray(f(t=times), float),
                                   times.shape))]
             for f in system.rhs]
    for plan in plans:
        j = plan.band - 1
        s = plan.abscissas
        tv = times[plan.piece_time, None]
        xvals = solution.component_values(system.unknown_of_band[j], s)
        index.append(plan.piece_time)
        for i in range(system.n_equations):
            kv = np.broadcast_to(np.asarray(
                system.kernels[i][j](t=tv, s=s), float), s.shape)
            gv = np.broadcast_to(np.asarray(
                system.nonlinearities[i][j](s=s, x=xvals), float), s.shape)
            product = np.abs(kv * gv) if magnitude else kv * gv
            terms[i].append(plan.piece_sums(product) * plan.piece_width)
    index = np.concatenate(index)
    out = np.vstack([
        np.bincount(index, weights=np.concatenate(row), minlength=times.size)
        for row in terms])
    return out.reshape((system.n_equations,) + t.shape)


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


def lu_substitute(lu, perm, b):
    """Solve A x = b from the factors PA = LU, ``perm`` P's row order, one
    row of ``lu`` sliced per step: the reference for
    :meth:`~bandvie.linalg.LUFactorization.solve` and
    :func:`~bandvie.linalg.lu_inverse_stack`."""
    x = b[perm]
    for k in range(1, x.size):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(x.size - 1, -1, -1):
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


def initial_values(system):
    """Start values x(0) from the differentiated equations at t = 0, the
    kernels frozen along the initial guess and the right-hand side f."""
    lin = linearize(system)
    return lin.start_values(lin.f_prime_at_zero)


def system_rhs(disc):
    """f of the discretized system at the discretization's times and
    f'(0): the arguments of its ``solve`` for the system's own f."""
    return f_at_times(disc.lin.system, disc.times), disc.lin.f_prime_at_zero


def callable_values(functions, ts):
    """Plain callables of one t each, at the times ts: shape (n, ts.size).

    Handy for manufactured problems where f is only known through quadrature.
    """
    return np.array([[f(t) for t in ts] for f in functions], dtype=float)


class CollocationPsi(CollocationDiscretization):
    """A collocation discretization of ``degree`` cut down to its psi, here
    over any times ``ts``: the discretization's own set-up pass builds the
    bands psi sums on, each band segment one piece of ``panels`` panels,
    and psi at the guess, and no moment system is assembled or
    factorized."""

    def __init__(self, lin, ts, degree, panels=DEFAULT_MOMENT_PANELS):
        self.lin, self.times, self.degree = lin, ts, degree
        self.panels, self.scale = panels, float(lin.curves.horizon)
        self.f = f_at_times(lin.system, ts)
        self._psi, self.psi_at_guess = self._assemble(None, None)

    def _add_moments(self, *args):
        pass


def frozen_values(lin, j, t, s):
    """K, dG/dx and A = K * dG/dx(x0) per equation on band j at outer
    times ``t`` and abscissas ``s``, each formed as one array by direct
    evaluation of the expressions: the values the frozen kernel of
    :class:`~bandvie.problem.LinearizedSystem` must give.  For a pair with
    G = x, dG/dx is None and A is K laid out in memory."""
    system = lin.system
    s = np.asarray(s, dtype=float)
    x0 = lin.x0.component_values(lin.unknown_of_band[j - 1], s)
    kvs, gvs, avs = [], [], []
    for i in range(lin.n_equations):
        kv = np.broadcast_to(np.asarray(
            system.kernels[i][j - 1](t=t, s=s), float), s.shape)
        gv = None
        if i in lin.nonlinear_equations[j - 1]:
            gv = np.broadcast_to(np.asarray(
                system.g_x[i][j - 1](s=s, x=x0), float), s.shape)
        kvs.append(kv)
        gvs.append(gv)
        avs.append(np.ascontiguousarray(kv) if gv is None else kv * gv)
    return kvs, gvs, avs


def whole_plan_frozen(lin, plan, times):
    """K and A per equation on the whole (pieces, panels) plan at once
    (:func:`frozen_values`): the values the blocked pass of
    :meth:`~bandvie.problem.LinearizedSystem.frozen_pairs` must give."""
    kvs, _, avs = frozen_values(lin, plan.band, times[plan.piece_time, None],
                                plan.abscissas)
    return kvs, avs


def psi_plans(disc):
    """Per band of the psi of ``disc``, a pc or collocation discretization,
    in its order, the plan its set-up pass summed on, built again as the
    discretization builds it: the discretization keeps no plan."""
    lin = disc.lin
    if isinstance(disc, PCDiscretization):
        cuts = disc.mesh.nodes[1:-1]
        edges = quadrature.band_edges(disc.times, lin.curves, snap=cuts)
        plans = quadrature.band_plan(edges, PIECE_PANELS, cuts)
    else:
        plans = quadrature.band_plan(
            quadrature.band_edges(disc.times, lin.curves), disc.panels)
    by_band = {plan.band - 1: plan for plan in plans}
    return [by_band[band.band] for band in disc._psi]


def guess_reference(disc):
    """Psi at the guess at the times of ``disc``: f plus, band by band in
    the order of its psi and equation by equation, the per-piece sums of
    :func:`guess_sums_reference` on the plans of :func:`psi_plans` times
    the panel widths, added by :func:`numpy.add.at`."""
    out = f_at_times(disc.lin.system, disc.times)
    for plan in psi_plans(disc):
        sums = guess_sums_reference(disc.lin, plan, disc.times)
        for i in sorted(sums):
            np.add.at(out[i], plan.piece_time, sums[i] * plan.piece_width)
    return out


def guess_sums_reference(lin, plan, times):
    """Per equation whose G is not x, the per-piece sums psi took at the
    guess on the whole plan: sum A * x0 - sum K * G(s, x0), with K and A
    of :func:`whole_plan_frozen`, and x0 and G on the flat abscissas."""
    j = plan.band
    kvs, avs = whole_plan_frozen(lin, plan, times)
    s = plan.abscissas.reshape(-1)
    xm = np.asarray(lin.x0.component_values(lin.unknown_of_band[j - 1], s),
                    dtype=float)
    xm_rows = xm.reshape(-1, plan.panels)
    out = {}
    for i in lin.nonlinear_equations[j - 1]:
        gm = np.broadcast_to(lin.system.nonlinearities[i][j - 1](s=s, x=xm),
                             xm.shape)
        rows = np.einsum("kp,kp->k", avs[i], xm_rows)
        rows -= np.einsum("kp,kp->k", kvs[i], gm.reshape(kvs[i].shape))
        out[i] = rows
    return out


def psi(system, x0, xm, ts, panels=DEFAULT_MOMENT_PANELS):
    """Right-hand side Psi at the times ts for guess x0 and iterate xm.

    ``x0`` and ``xm`` follow the iterate protocol (expression iterates or
    polynomial solutions).  Psi is summed by a collocation discretization
    of the degree of ``xm`` (1 for an expression iterate, which it serves
    only as the linearization point), here at any times, t = 0 included
    (:class:`CollocationPsi`).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    lin = linearize(system, x0)
    degree = xm.degree if isinstance(xm, PolynomialSolution) else 1
    return PsiEvaluator(lin, CollocationPsi(lin, ts, degree,
                                            panels)).values(xm)


def pc_psi_evaluator(lin, mesh):
    """A pc discretization and the psi evaluator that its psi serves."""
    disc = PCDiscretization(lin, mesh)
    return disc, PsiEvaluator(lin, disc)


def composite_midpoint(f, lo, hi, panels=200):
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


def component_domains(system):
    """The component domains from the curves, evaluated afresh."""
    T = system.horizon
    return tuple(
        max(float(system.curves.alpha(j + 1, T))
            for j in range(system.n_bands) if system.unknown_of_band[j] == i)
        for i in range(1, system.n_components + 1))


def _slope_jumps(lin):
    """alpha'_j(0) - alpha'_{j-1}(0) per band j = 1..n_bands, 0-based."""
    slopes = [float(lin.curves.alpha_prime(j, 0.0))
              for j in range(lin.n_bands + 1)]
    return [b - a for a, b in zip(slopes, slopes[1:])]


def derivative_at_zero_reference(lin, iterate):
    """d(psi)/dt at t = 0 with a term for every (equation, band) pair,
    K and dG/dx at t = s = 0 from :func:`frozen_values`, band by band."""
    system = lin.system
    jumps = _slope_jumps(lin)
    out = np.array([float(fp(t=0.0)) for fp in system.rhs_prime])
    for j in range(lin.n_bands):
        kvs, gvs, _ = frozen_values(lin, j + 1, 0.0, np.zeros(1))
        xm0 = iterate.value_at_zero(lin.unknown_of_band[j])
        for i in range(lin.n_equations):
            gx0 = 1.0 if gvs[i] is None else float(gvs[i][0])
            g0 = float(system.nonlinearities[i][j](s=0.0, x=xm0))
            out[i] += float(kvs[i][0]) * jumps[j] * (gx0 * xm0 - g0)
    return out


def start_value_matrix_reference(lin):
    """The start-value matrix band by band: A_ij(0, 0) from
    :func:`frozen_values` times the jump of the curve slopes at 0, added into
    the column of band j's component."""
    jumps = _slope_jumps(lin)
    mat = np.zeros((lin.n_equations, lin.n_components))
    for j in range(lin.n_bands):
        avs = frozen_values(lin, j + 1, 0.0, np.zeros(1))[2]
        u = lin.unknown_of_band[j]
        for i in range(lin.n_equations):
            mat[i, u - 1] += float(avs[i][0]) * jumps[j]
    return mat


def collocation_solve_reference(disc, psi, derivative_at_zero):
    """:meth:`CollocationDiscretization.solve` by scalar loops over (i, k, j)."""
    lin, m = disc.lin, disc.degree
    a0 = lin.start_values(derivative_at_zero)
    psi = rhs_at_nodes(psi, disc.times, lin.n_equations)
    f_vec = np.empty(lin.n_equations * m)
    for i in range(1, lin.n_equations + 1):
        for k in range(1, m + 1):
            contrib = 0.0
            for j in range(1, lin.n_bands + 1):
                contrib += (a0[lin.unknown_of_band[j - 1] - 1]
                            * disc.zeroth_moments[i - 1, k - 1, j - 1])
            f_vec[flatten_index(i, k, m)] = psi[i - 1, k - 1] - contrib
    scaled = refined_solve(disc._fact, disc.matrix, f_vec)
    coeffs = np.zeros((lin.n_components, m + 1))
    coeffs[:, 0] = a0
    powers = disc.scale ** np.arange(1, m + 1)
    for u in range(1, lin.n_components + 1):
        coeffs[u - 1, 1:] = scaled[(u - 1) * m:u * m] / powers
    return PolynomialSolution(coeffs, component_domains(lin.system),
                              disc.condition_number)


def correction_norm_reference(prev, nxt):
    """Sup of |next - prev| over fresh norm grids, both iterates sampled."""
    worst = 0.0
    for i in range(1, nxt.n_components + 1):
        ts = np.linspace(0.0, nxt.component_domains[i - 1], NORM_SAMPLES)
        diff = np.abs(np.asarray(nxt.component_values(i, ts), float)
                      - np.asarray(prev.component_values(i, ts), float))
        worst = max(worst, float(np.max(diff)))
    return worst


def errors_reference(solution, system, samples=ERROR_SAMPLES):
    """Per-component ``(sup error, t_max)`` and the aggregate, uncached."""
    out = []
    for i, domain in enumerate(component_domains(system), start=1):
        ts = np.linspace(0.0, domain, samples)
        exact = np.broadcast_to(
            np.asarray(system.exact[i - 1](t=ts), float), ts.shape)
        diff = np.abs(exact - np.asarray(solution.component_values(i, ts),
                                         float))
        k = int(np.argmax(diff))
        out.append((float(diff[k]), float(ts[k])))
    return out, float(np.sqrt(sum(e ** 2 for e, _ in out)))


def pc_solve_reference(disc, psi):
    """The step values of :meth:`PCDiscretization.solve` by a step loop.

    Per step and band the terms are built on their own: a band on its
    component's highest segment adds its coefficients to the step matrix,
    any other band with a nonzero coefficient moves its known segment to
    the right-hand side, and every band moves its history pieces.  Each
    step solves by substitution from its LU factors and writes the
    components of the bands; segments never written stay NaN.  No step
    fault is checked.
    """
    lin, mesh = disc.lin, disc.mesh
    n_steps, n_eq = mesh.n_segments, lin.n_equations
    bands = disc._assemble()[0]
    comps = np.array(list(dict.fromkeys(band[0] for band in bands))) - 1
    active = np.zeros((n_steps, lin.n_components), dtype=int)
    for u, segments, *_ in bands:
        np.maximum(active[:, u - 1], segments, out=active[:, u - 1])
    mats = np.zeros((n_steps, n_eq, lin.n_components))
    terms = [[] for _ in range(n_steps)]
    for u, segments, coeff, hist, size, weights in bands:
        cut = np.append(0, np.cumsum(size))
        for k in range(n_steps):
            known = -1
            if segments[k] == active[k, u - 1]:
                mats[k, :, u - 1] += coeff[k]
            elif np.any(coeff[k] != 0.0):
                known = segments[k] - 1
            lo, hi = cut[k], cut[k + 1]
            terms[k].append((u - 1, known, coeff[k], hist[lo:hi],
                             weights[:, lo:hi]))
    lu, perm = lu_factor_stack(mats)
    rhs_values = rhs_at_nodes(psi, mesh.nodes[1:], n_eq)
    values = np.full((lin.n_components, n_steps), np.nan)
    for k in range(n_steps):
        b = rhs_values[:, k].copy()
        for u, known, coeff, hist, weights in terms[k]:
            if known >= 0:
                b -= coeff * values[u, known]
            if hist.size:
                b -= weights @ values[u, hist]
        values[comps, active[k, comps] - 1] = lu_substitute(
            lu[k], perm[k], b)[comps]
    return values
