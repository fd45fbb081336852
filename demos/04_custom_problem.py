"""Defining, validating and solving a problem from a YAML config.

The config next to this script declares a linear 2x2 system without an
exact solution.  The script loads it, runs the validator (curve ordering,
f(0) = 0, non-vanishing outer-band kernels, finite frozen kernels and G
along the initial guess), solves with both inner methods, and checks the results against each other
and against the residual of the original equations.

Run:  python demos/04_custom_problem.py
"""

from pathlib import Path

import numpy as np

from bandvie import (
    band_quadrature_residual,
    iterate,
    load_problem,
    solve_linear_collocation,
    validate,
)

CONFIG = Path(__file__).with_name("sample_problem.yaml")


def main():
    system = load_problem(CONFIG)
    print(f"loaded {system.name!r}: {system.n_equations} equations, "
          f"bands split at {[str(a) for a in system.curves.interior]}, "
          f"T = {system.horizon:g}")

    diagnostics = validate(system)
    print(f"validation: {'clean' if not diagnostics else ''}")
    for d in diagnostics:
        print(f"  {d}")

    # the two inner solvers agree up to the coarser method's accuracy;
    # component 1 only enters the equations below the curve t/2, so it is
    # determined on [0, alpha_1(T)] only and sampled there
    poly = solve_linear_collocation(system, degree=4)
    pc_solution, _ = iterate(system, method="pc", n_segments=256)
    domain = system.component_domain(1)
    print(f"\ncomponent 1 on its interval of definition [0, {domain:g}]:")
    print("       t     collocation(x1)    pc(x1)")
    for t in np.linspace(0.0, domain, 6):
        a = poly.component_values(1, np.array([t]))[0]
        b = pc_solution.component_values(1, np.array([t]))[0]
        print(f"  {t:6.3f}   {a:15.8f}   {b:12.8f}")

    worst = max(
        abs(v)
        for t in np.linspace(0.1, system.horizon, 15)
        for v in band_quadrature_residual(system, poly, float(t)))
    print(f"\nsup residual of the degree-4 solution in the original "
          f"equations: {worst:.3e}")
    print("(no exact solution was declared; the residual under independent")
    print("2000-panel quadrature is the accuracy evidence here)")


if __name__ == "__main__":
    main()
