"""Polynomial collocation on the two linear benchmark systems.

Both systems have kernels that jump across interior curves (t/2 for the
2x2 system; t/3 and 2t/3 for the 3x3 one) and known exact solutions built
from cos and sin.  Collocation represents each unknown component as one
polynomial on [0, T]: the constant coefficients come from the
differentiated equations at t = 0, the rest from moment integrals of the
kernels collocated at uniform nodes.

Run:  python demos/01_linear_collocation.py
"""

import warnings

from bandvie import (
    SolveReport,
    builtin,
    format_table,
    measure_errors,
    solve_linear_collocation,
)
from bandvie.collocation import ConditioningWarning
from bandvie.errors import SolverError


def sweep(name, degrees):
    system = builtin(name)
    print(f"== {name}: {system.n_equations} equations on [0, {system.horizon:g}]")
    reports = []
    for m in degrees:
        rep = SolveReport(problem=name, method="collocation",
                          parameter_name="m", parameter_value=m)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ConditioningWarning)
                solution = solve_linear_collocation(system, degree=m)
            rep.component_errors, rep.aggregate_error = measure_errors(
                solution, system)
            if caught:
                print(f"   note (m={m}): {caught[0].message}")
        except SolverError as exc:
            rep.error_message = str(exc)
        reports.append(rep)
    print(format_table(reports))


def main():
    # errors fall steeply with the degree until the monomial basis runs out
    # of well-conditioned headroom (~1e-8 floor at m = 12, singular at 15)
    sweep("model01", (2, 3, 5, 8, 12, 15))
    sweep("model02", (2, 3, 5, 8))
    print("The worst error sits at the right end of each component's")
    print("interval of definition (t = alpha_i(T)), as expected for a")
    print("first-kind Volterra problem: history accumulates.")


if __name__ == "__main__":
    main()
