"""Solvers for first-kind Volterra integral equation systems whose kernels
jump across a family of curves.

The outer iteration freezes the operator derivative at an initial guess;
the linear systems it produces are solved either by direct piecewise-
constant discretization on a node grid or by polynomial collocation.
The names below are the entry points; everything else lives in the
submodules (``bandvie.pc``, ``bandvie.collocation``, ``bandvie.newton``,
...).
"""

from .collocation import solve_linear_collocation
from .config import load_problem
from .errors import BandvieError
from .newton import iterate
from .pc import solve_linear_pc
from .problem import (
    CurveFamily,
    VolterraSystem,
    band_quadrature_residual,
    validate,
)
from .registry import builtin, list_builtins
from .report import SolveReport, format_table, measure_errors

__version__ = "0.1.0"

__all__ = [
    "BandvieError",
    "CurveFamily",
    "SolveReport",
    "VolterraSystem",
    "band_quadrature_residual",
    "builtin",
    "format_table",
    "iterate",
    "list_builtins",
    "load_problem",
    "measure_errors",
    "solve_linear_collocation",
    "solve_linear_pc",
    "validate",
]
