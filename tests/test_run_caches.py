"""What one run computes once: f at the solver's times, the error grids,
the norm samples of each iterate, the errors of a record (on first read)
and the component domains; and the psi derivative at t = 0 over the
pairs whose G is not x.
Each is checked against an uncached loop from ``helpers``, and none is
stored on the system or on an iterate."""

import numpy as np
import pytest

from bandvie import cli, newton
from bandvie.collocation import (
    CollocationDiscretization,
    PolynomialSolution,
    solve_linear_collocation,
)
from bandvie.expr import Expression
from bandvie.newton import NORM_SAMPLES, PsiEvaluator, iterate
from bandvie.pc import (
    PCDiscretization,
    PiecewiseConstantSolution,
    solve_linear_pc,
)
from bandvie.problem import ExpressionIterate, linearize
from bandvie.registry import builtin, list_builtins
from bandvie.report import ERROR_SAMPLES, error_samples, measure_errors

from helpers import (
    collocation_solve_reference,
    component_domains,
    correction_norm_reference,
    derivative_at_zero_reference,
    empty_band_system,
    errors_reference,
    repeated_curve_system,
    start_value_matrix_reference,
)

BUILTINS = [name for name, _ in list_builtins()]


@pytest.mark.parametrize("name", BUILTINS)
def test_component_domains_are_the_curve_ends(name):
    system = builtin(name)
    assert system.component_domains() == component_domains(system)
    with pytest.raises(ValueError, match="no component 0"):
        system.component_domain(0)


def test_measure_errors_reads_a_read_only_cache(model01):
    solution, _ = iterate(model01, method="collocation", degree=3,
                          max_iters=2)
    first = measure_errors(solution, model01)
    assert measure_errors(solution, model01) == first
    errors, aggregate = errors_reference(solution, model01)
    assert [(c.sup_error, c.t_max) for c in first[0]] == errors
    assert first[1] == aggregate
    grids = error_samples(model01)
    assert grids is error_samples(model01)
    assert len(grids) == model01.n_components
    for ts, exact in grids:
        assert ts.size == exact.size == ERROR_SAMPLES
        assert not ts.flags.writeable
        assert not exact.flags.writeable
    # a system without an exact solution has no error grid
    with pytest.raises(ValueError, match="has no exact solution"):
        error_samples(repeated_curve_system())


def test_sys2_collocation_records_match_an_uncached_loop(sys2):
    _, report = iterate(sys2, method="collocation", degree=5)
    lin = linearize(sys2)
    disc = CollocationDiscretization(lin, 5)
    evaluator = PsiEvaluator(lin, disc)
    current, previous = lin.x0, None
    for record in report.records:
        solution = collocation_solve_reference(
            disc, evaluator.values(current),
            derivative_at_zero_reference(lin, current))
        correction = correction_norm_reference(current, solution)
        errors, aggregate = errors_reference(solution, sys2)
        assert record.correction == correction
        assert record.ratio == (None if previous is None
                                else correction / previous)
        assert [(c.sup_error, c.t_max)
                for c in record.component_errors] == errors
        assert record.aggregate_error == aggregate
        current, previous = solution, correction
    assert len(report.records) == 20


@pytest.mark.parametrize("method, size", [("collocation", 4), ("pc", 32)])
def test_iterate_samples_each_iterate_once_for_its_norms(sys2, monkeypatch,
                                                         method, size):
    valued, grids, sampled = [], [], []
    for cls in (ExpressionIterate, PolynomialSolution,
                PiecewiseConstantSolution):
        def counting(self, i, ts, _original=cls.component_values):
            if np.size(ts) == NORM_SAMPLES:
                valued.append((self, i))      # keeps the iterate alive
            return _original(self, i, ts)
        monkeypatch.setattr(cls, "component_values", counting)
    solver = (CollocationDiscretization if method == "collocation"
              else PCDiscretization)

    def sampler(self, ts, _original=solver.sampler):
        grids.append(ts)
        sample = _original(self, ts)

        def counted(it):
            sampled.append(it)
            return sample(it)
        return counted
    monkeypatch.setattr(solver, "sampler", sampler)
    key = "degree" if method == "collocation" else "n_segments"
    _, report = iterate(sys2, method=method, max_iters=5, tol=1e-15,
                        **{key: size})
    # the guess by its component_values, once per component
    guess = valued[0][0]
    assert isinstance(guess, ExpressionIterate)
    assert valued == [(guess, i) for i in (1, 2)]
    # one sampler per run, and every solution once through it
    assert len(grids) == 1 and grids[0].shape == (2, NORM_SAMPLES)
    assert len(sampled) == len(report.records) == 5
    assert all(it is record.iterate
               for it, record in zip(sampled, report.records))


@pytest.mark.parametrize("method, size", [("collocation", 4), ("pc", 32)])
def test_a_run_evaluates_f_once_at_the_solver_times(sys2, monkeypatch,
                                                    method, size):
    # the solver's set-up pass evaluates f and sums psi at the guess into
    # it; psi and a linear solve read the solver's f
    evaluated = []

    def counting(self, *args, _original=Expression.__call__, **kwargs):
        if any(self is f for f in sys2.rhs):
            evaluated.append(np.size(kwargs["t"]))
        return _original(self, *args, **kwargs)
    monkeypatch.setattr(Expression, "__call__", counting)
    key = "degree" if method == "collocation" else "n_segments"
    iterate(sys2, method=method, max_iters=3, tol=1e-15,
            skip_validation=True, **{key: size})
    assert evaluated == [size] * sys2.n_equations
    evaluated.clear()
    solve = solve_linear_collocation if method == "collocation" \
        else solve_linear_pc
    solve(sys2, size)
    assert evaluated == [size] * sys2.n_equations


def _counted_measure_errors(monkeypatch, module):
    """The iterates ``module.measure_errors`` is called for, in order."""
    measured = []

    def counting(solution, system, *args, _original=module.measure_errors):
        measured.append(solution)
        return _original(solution, system, *args)
    monkeypatch.setattr(module, "measure_errors", counting)
    return measured


@pytest.mark.parametrize("method, size", [("collocation", 4), ("pc", 32)])
def test_records_measure_their_errors_once_on_first_read(sys2, monkeypatch,
                                                         method, size):
    measured = _counted_measure_errors(monkeypatch, newton)
    key = "degree" if method == "collocation" else "n_segments"
    _, report = iterate(sys2, method=method, max_iters=6, **{key: size})
    assert measured == []
    first = [(record.component_errors, record.aggregate_error)
             for record in report.records]
    assert first == [measure_errors(record.iterate, sys2)
                     for record in report.records]
    assert [(record.component_errors, record.aggregate_error)
            for record in report.records] == first
    assert len(measured) == len(report.records)
    assert all(it is record.iterate
               for it, record in zip(measured, report.records))


def test_a_study_measures_each_solved_point_once(monkeypatch, capsys):
    in_cli = _counted_measure_errors(monkeypatch, cli)
    in_newton = _counted_measure_errors(monkeypatch, newton)
    # model02 solves at m = 10; its matrix at m = 11 fails the pivot check
    assert cli.main(["study", "--builtin", "model02", "--method",
                     "collocation", "--sweep", "10,11", "--format",
                     "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3 and rows[2].startswith("11,,")
    assert len(in_cli) == 1 and in_newton == []


@pytest.mark.parametrize("name", BUILTINS)
def test_derivative_at_zero_matches_the_full_loop(name):
    system = builtin(name)
    lin = linearize(system)
    domains = system.component_domains()
    n = system.n_components
    iterates = [system.guess_iterate(),
                ExpressionIterate(["0.7 - t"] * n, domains),
                ExpressionIterate(["-1.3 + t^2"] * n, domains)]
    if system.exact is not None:
        iterates.append(system.exact_iterate())
    for it in iterates:
        got = lin.derivative_at_zero(it)
        assert got.tobytes() == derivative_at_zero_reference(
            lin, it).tobytes()


@pytest.mark.parametrize("name", BUILTINS + ["repeated", "empty-band"])
def test_start_value_matrix_matches_a_per_band_loop(name):
    system = {"repeated": repeated_curve_system,
              "empty-band": empty_band_system}.get(
                  name, lambda: builtin(name))()
    lin = linearize(system)
    assert lin.start_value_matrix().tobytes() == (
        start_value_matrix_reference(lin).tobytes())


@pytest.mark.parametrize("method, size", [("collocation", 4), ("pc", 32)])
def test_a_run_stores_nothing_on_its_system_or_iterates(monkeypatch, method,
                                                        size):
    built = []
    for cls in (ExpressionIterate, PolynomialSolution,
                PiecewiseConstantSolution):
        def recording(self, *args, _original=cls.__init__, **kwargs):
            _original(self, *args, **kwargs)
            built.append((self, dict(vars(self))))
        monkeypatch.setattr(cls, "__init__", recording)
    # a system of its own: no earlier test has measured its errors
    system = builtin("nonlinear-sys2")
    before = dict(vars(system))
    key = "degree" if method == "collocation" else "n_segments"
    solution, report = iterate(system, method=method, max_iters=5,
                               **{key: size})
    measure_errors(solution, system)
    for record in report.records:
        assert record.aggregate_error is not None
    assert vars(system).keys() == before.keys()
    assert all(vars(system)[k] is v for k, v in before.items())
    # the guess and every solution, each as its constructor left it
    assert len(built) >= len(report.records) + 1
    assert all(r.iterate is it for r, (it, _) in zip(
        report.records, built[-len(report.records):]))
    for it, attributes in built:
        assert vars(it).keys() == attributes.keys(), type(it).__name__
        assert all(vars(it)[k] is v for k, v in attributes.items())
