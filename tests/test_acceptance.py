"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here; "within a factor of 10"
means the measured/reference ratio lies in [0.1, 10].
"""

import time

import numpy as np
import pytest

from bandvie import quadrature
from bandvie.collocation import (
    CollocationDiscretization,
    flatten_index,
    solve_linear_collocation,
)
from bandvie.expr import parse
from bandvie.linalg import residual
from bandvie.newton import iterate
from bandvie.problem import band_quadrature_residual, linearize
from bandvie.registry import builtin
from bandvie.report import measure_errors

from helpers import (
    callable_values,
    composite_midpoint,
    lu_solve,
    unflatten_index,
)

ALL_BUILTINS = ("model01", "model02", "nonlinear-scalar",
                "nonlinear-sys1", "nonlinear-sys2")

REF_2X2_COLLOCATION = {2: 6.80072e-2, 3: 2.36222e-2, 5: 3.95400e-4, 8: 1.80994e-7}
REF_3X3_COLLOCATION = {2: 3.44752e-2, 5: 9.59747e-5, 8: 4.21286e-8}
REF_SCALAR_PC = {32: 0.0286877, 128: 0.00730057, 512: 0.00386043}
REF_FAR_GUESS_FIRST_STEP = 0.446955


def _announce(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _within_factor_10(value, reference):
    return reference / 10 <= value <= reference * 10


def test_criterion_1_linear_2x2_collocation(model01):
    start = time.perf_counter()
    measured = {}
    for m in sorted(REF_2X2_COLLOCATION):
        solution = solve_linear_collocation(model01, degree=m)
        _, measured[m] = measure_errors(solution, model01)
    elapsed = time.perf_counter() - start
    ok = all(_within_factor_10(measured[m], REF_2X2_COLLOCATION[m]) for m in REF_2X2_COLLOCATION)
    values = list(measured.values())
    ok = ok and all(b < a for a, b in zip(values, values[1:]))
    ok = ok and elapsed < 5.0
    _announce(
        "1 (linear 2x2, collocation m=2,3,5,8)", ok,
        ", ".join(f"m={m}: {measured[m]:.3e} vs {REF_2X2_COLLOCATION[m]:.3e}" for m in REF_2X2_COLLOCATION)
        + f"; {elapsed:.2f}s")


def test_criterion_2_linear_3x3_collocation(model02):
    start = time.perf_counter()
    measured, tmax_reported = {}, True
    for m in sorted(REF_3X3_COLLOCATION):
        solution = solve_linear_collocation(model02, degree=m)
        components, measured[m] = measure_errors(solution, model02)
        tmax_reported = tmax_reported and all(
            np.isfinite(c.t_max) and 0.0 <= c.t_max <= 2.0 for c in components)
        assert len(components) == 3
    elapsed = time.perf_counter() - start
    ok = all(_within_factor_10(measured[m], REF_3X3_COLLOCATION[m]) for m in REF_3X3_COLLOCATION)
    ok = ok and tmax_reported and elapsed < 10.0
    _announce(
        "2 (linear 3x3, collocation m=2,5,8)", ok,
        ", ".join(f"m={m}: {measured[m]:.3e} vs {REF_3X3_COLLOCATION[m]:.3e}" for m in REF_3X3_COLLOCATION)
        + f"; worst-error points reported; {elapsed:.2f}s")


def test_criterion_3_scalar_newton_pc(scalar):
    start = time.perf_counter()
    errors = {}
    for n in (32, 64, 128, 256, 512):
        _, report = iterate(scalar, method="pc", n_segments=n,
                            max_iters=10, tol=1e-12)
        assert len(report.records) <= 10
        errors[n] = report.records[-1].aggregate_error
    elapsed = time.perf_counter() - start
    ok = all(_within_factor_10(errors[n], REF_SCALAR_PC[n]) for n in REF_SCALAR_PC)
    ratios = {n: errors[n] / errors[2 * n] for n in (64, 128, 256)}
    ok = ok and all(1.4 <= r <= 3.0 for r in ratios.values())
    ok = ok and elapsed < 30.0
    _announce(
        "3 (scalar Newton + pc, h=1/32..1/512)", ok,
        ", ".join(f"N={n}: {errors[n]:.3e} vs {REF_SCALAR_PC[n]:.3e}" for n in REF_SCALAR_PC)
        + "; ratios " + ", ".join(f"{n}->{r:.2f}" for n, r in ratios.items())
        + f"; {elapsed:.2f}s")


def test_criterion_4_table4_newton_collocation_far_guess(sys1):
    start = time.perf_counter()
    _, report = iterate(sys1, method="collocation", degree=3,
                        max_iters=20, tol=1e-14)
    by_index = {r.index: r.aggregate_error for r in report.records}
    elapsed = time.perf_counter() - start
    ok = _within_factor_10(by_index[1], REF_FAR_GUESS_FIRST_STEP)
    ok = ok and by_index[20] <= 1e-7
    ok = ok and elapsed < 30.0
    _announce(
        "4 (nonlinear system, m=3, far guess)", ok,
        f"iter1: {by_index[1]:.3e} vs {REF_FAR_GUESS_FIRST_STEP:.3e}, "
        f"iter20: {by_index[20]:.3e} <= 1e-7; {elapsed:.2f}s")


def test_criterion_5_tables56_newton_collocation_near_guess(sys2):
    start = time.perf_counter()
    _, report5 = iterate(sys2, method="collocation", degree=5,
                         max_iters=20, tol=1e-14)
    _, report10 = iterate(sys2, method="collocation", degree=10,
                          max_iters=20, tol=1e-14)
    eps5 = report5.records[-1].aggregate_error
    eps10 = report10.records[-1].aggregate_error
    elapsed = time.perf_counter() - start
    ok = eps5 <= 1e-4 and eps10 <= 1e-7 and elapsed < 60.0
    _announce(
        "5 (nonlinear system, m=5 and m=10, near guess)", ok,
        f"m=5: {eps5:.3e} <= 1e-4, m=10: {eps10:.3e} <= 1e-7; {elapsed:.2f}s")


def test_criterion_6_property_suite(model01, scalar, sys2):
    checks = []

    # midpoint exactness on affine integrands at several panel counts
    exact = 2.3 * 1.8 - 1.7 * (2.1 ** 2 - 0.3 ** 2) / 2
    affine_ok = all(
        abs(composite_midpoint(
            lambda s: 2.3 - 1.7 * s, 0.3, 2.1, p) - exact) <= 1e-13
        for p in (1, 2, 7, 100))
    checks.append(("midpoint affine exactness", affine_ok))

    # flattening bijection
    bij_ok = all(
        unflatten_index(flatten_index(i, k, m), m) == (i, k)
        for n, m in ((2, 3), (3, 5))
        for i in range(1, n + 1) for k in range(1, m + 1))
    checks.append(("flattening bijection", bij_ok))

    # lu_solve residual bound on 500 random systems
    rng = np.random.default_rng(123)
    lu_ok = True
    for _ in range(500):
        n = int(rng.integers(1, 61))
        a = rng.uniform(-1, 1, size=(n, n))
        a[np.arange(n), np.arange(n)] += np.sign(
            a[np.arange(n), np.arange(n)]) * (n + 1.0)
        b = rng.uniform(-10, 10, size=n)
        x = lu_solve(a, b)
        lu_ok = lu_ok and residual(a, x, b) <= 1e-10 * max(1.0, np.max(np.abs(b)))
    checks.append(("lu residual bound (500 systems)", lu_ok))

    # symbolic derivative vs finite differences
    rng = np.random.default_rng(321)
    fd_ok = True
    for text, wrt in (("sin(t)*exp(t/3)", "t"), ("3*x + x^3", "x"),
                      ("sqrt(s+1)/(s+2)", "s"), ("t^2*log(t+2)", "t")):
        e, d = parse(text), parse(text).diff(wrt)
        for _ in range(50):
            point = {wrt: float(rng.uniform(0.05, 2.0))}
            hi = {wrt: point[wrt] + 1e-6}
            lo = {wrt: point[wrt] - 1e-6}
            fd = (e(**hi) - e(**lo)) / 2e-6
            fd_ok = fd_ok and abs(d(**point) - fd) <= 1e-6
    checks.append(("derivative vs finite difference", fd_ok))

    # one outer step suffices on a linear problem
    _, report = iterate(model01, method="collocation", degree=5,
                        max_iters=5, tol=1e-12)
    checks.append(("one-step exactness on linear problems",
                   len(report.records) == 2
                   and report.records[1].correction <= 1e-10))

    # the t=0 start-value system matches the exact starts for every builtin
    start_ok = True
    for name in ALL_BUILTINS:
        system = builtin(name)
        lin = linearize(system)
        exact_it = system.exact_iterate()
        starts = lin.start_values(lin.derivative_at_zero(exact_it))
        expected = [float(system.exact[i](t=0.0))
                    for i in range(system.n_components)]
        start_ok = start_ok and np.allclose(starts, expected, atol=1e-10)
    checks.append(("t=0 start values match exact for all builtins", start_ok))

    # manufactured degree-2 solution recovered through collocation
    lin = linearize(model01)

    def make_f(i):
        def f(t):
            total = 0.0
            for seg in quadrature.decompose(t, model01.curves):
                if seg.is_empty:
                    continue
                kern = model01.kernels[i][seg.band - 1]
                total += composite_midpoint(
                    lambda s: np.broadcast_to(
                        np.asarray(kern(t=t, s=s), float), s.shape) * s ** 2,
                    seg.lo, seg.hi, 2000)
            return total
        return f

    disc = CollocationDiscretization(lin, degree=3, panels=2000)
    sol = disc.solve(callable_values([make_f(0), make_f(1)], disc.times),
                     [0.0, 0.0])
    manufactured_ok = np.allclose(
        sol.coefficients, [[0, 0, 1, 0], [0, 0, 1, 0]], atol=1e-8)
    checks.append(("manufactured degree-2 recovery", manufactured_ok))

    # residual oracle: accepted solutions satisfy the original equations
    # through independent 2000-panel quadrature at the method's error order
    residual_ok = True
    for name, kwargs in (("model01", dict(method="collocation", degree=5)),
                         ("nonlinear-scalar", dict(method="pc", n_segments=64)),
                         ("nonlinear-sys2", dict(method="collocation", degree=5))):
        system = builtin(name)
        solution, report = iterate(system, max_iters=20, tol=1e-12, **kwargs)
        _, aggregate = measure_errors(solution, system)
        worst = max(
            abs(v)
            for t in np.linspace(0.1, system.curves.horizon, 16)
            for v in band_quadrature_residual(system, solution, float(t),
                                              panels=2000))
        residual_ok = residual_ok and worst <= 25.0 * aggregate + 1e-9
    checks.append(("residual oracle on accepted solutions", residual_ok))

    ok = all(flag for _, flag in checks)
    _announce("6 (property suite)", ok,
              "; ".join(f"{name}: {'ok' if flag else 'FAIL'}"
                        for name, flag in checks))
