"""Command-line interface: run single solves, parameter studies, list builtins.

Exit codes: 0 success, 2 for problem-definition/validation/usage errors,
3 for solver failures.  Studies continue past failed sweep points and
record an error row instead.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .config import load_problem
from .errors import (
    BandvieError,
    CurveOrderingError,
    ExpressionSyntaxError,
    ProblemDefinitionError,
)
from .newton import iterate
from .problem import band_quadrature_residual, validate
from .registry import builtin, list_builtins
from .report import SolveReport, format_table, measure_errors, to_csv, to_json

_VALIDATION_ERRORS = (
    ProblemDefinitionError, ExpressionSyntaxError, CurveOrderingError,
    FileNotFoundError, IsADirectoryError, PermissionError,
)

#: sample times for the residual report of problems without a known exact
#: solution
_RESIDUAL_SAMPLES = 51

#: per method, the least --nodes (pc) or --degree (collocation)
_LEAST = {"pc": 2, "collocation": 1}


def _add_common(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", metavar="NAME",
                     help="builtin problem name (see 'bandvie list')")
    src.add_argument("--config", metavar="PATH",
                     help="YAML problem config file")
    parser.add_argument("--method", choices=("pc", "collocation"),
                        required=True, help="inner linear solver")
    parser.add_argument("--nodes", "-N", type=int, metavar="N",
                        help="mesh segments for --method pc")
    parser.add_argument("--degree", "-m", type=int, metavar="M",
                        help="polynomial degree for --method collocation")
    parser.add_argument("--iters", type=int, default=20, metavar="K",
                        help="outer iteration cap (default 20)")
    parser.add_argument("--tol", type=float, default=1e-12, metavar="X",
                        help="correction-norm stopping tolerance (default 1e-12)")
    parser.add_argument("--format", choices=("table", "csv", "json"),
                        default="table", help="output format (default table)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")


def _load(args):
    if args.builtin:
        system = builtin(args.builtin)
    else:
        system = load_problem(args.config)
    diagnostics = validate(system)
    if diagnostics:
        raise ProblemDefinitionError(
            "problem failed validation:\n  "
            + "\n  ".join(str(d) for d in diagnostics))
    return system


def _check_limits(args, parser):
    """Reject numeric options outside the range a solve can use."""
    if args.iters < 1:
        parser.error(f"--iters must be at least 1, got {args.iters}")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        parser.error(f"--tol must be finite and positive, got {args.tol}")


def _method_parameter(args, parser):
    least = _LEAST[args.method]
    if args.method == "pc":
        if args.nodes is None or args.degree is not None:
            parser.error("--method pc takes --nodes N (not --degree)")
        if args.nodes < least:
            parser.error(f"--nodes must be at least {least}")
        return "N", args.nodes
    if args.degree is None or args.nodes is not None:
        parser.error("--method collocation takes --degree M (not --nodes)")
    if args.degree < least:
        parser.error(f"--degree must be at least {least}")
    return "m", args.degree


def _solve_once(system, args, param_name, value):
    start = time.perf_counter()
    kwargs = dict(method=args.method, max_iters=args.iters, tol=args.tol,
                  skip_validation=True)
    if param_name == "N":
        kwargs["n_segments"] = value
    else:
        kwargs["degree"] = value
    solution, iteration_report = iterate(system, **kwargs)
    wall = time.perf_counter() - start
    rep = SolveReport(
        problem=system.name, method=args.method,
        parameter_name=param_name, parameter_value=value,
        iterations=iteration_report, wall_time=wall)
    if system.exact is not None:
        rep.component_errors, rep.aggregate_error = measure_errors(
            solution, system)
    else:
        ts = np.linspace(0.0, system.curves.horizon, _RESIDUAL_SAMPLES)[1:]
        rep.residual_sup = float(np.max(np.abs(band_quadrature_residual(
            system, solution, ts))))
    return rep


def _emit(reports, args):
    if args.format == "csv":
        text = to_csv(reports)
    elif args.format == "json":
        text = to_json(reports)
    else:
        text = format_table(reports, title=f"problem: {reports[0].problem}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_list(_args):
    for name, desc in list_builtins():
        sys.stdout.write(f"{name}: {desc}\n")
    return 0


def _cmd_run(args, parser):
    _check_limits(args, parser)
    system = _load(args)
    param_name, value = _method_parameter(args, parser)
    rep = _solve_once(system, args, param_name, value)
    _emit([rep], args)
    return 0


def _parse_sweep(text, parser):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        parser.error(f"--sweep must be a comma-separated list of integers, "
                     f"got {text!r}")
    if not values:
        parser.error("--sweep must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        parser.error("--sweep values must be strictly increasing")
    return values


def _cmd_study(args, parser):
    _check_limits(args, parser)
    system = _load(args)
    if args.method == "pc" and args.degree is not None:
        parser.error("--method pc sweeps node counts, drop --degree")
    if args.method == "collocation" and args.nodes is not None:
        parser.error("--method collocation sweeps degrees, drop --nodes")
    param_name = "N" if args.method == "pc" else "m"
    values = _parse_sweep(args.sweep, parser)
    least = _LEAST[args.method]
    if values[0] < least:
        parser.error(f"--sweep values must be at least {least} for "
                     f"--method {args.method}, got {values[0]}")
    reports = []
    for value in values:
        try:
            reports.append(_solve_once(system, args, param_name, value))
        except BandvieError as exc:
            reports.append(SolveReport(
                problem=system.name, method=args.method,
                parameter_name=param_name, parameter_value=value,
                error_message=str(exc)))
    _emit(reports, args)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bandvie",
        description="Solve systems of first-kind Volterra integral equations "
                    "with jump-discontinuous kernels.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list builtin problems")

    p_run = sub.add_parser("run", help="solve one problem once")
    _add_common(p_run)

    p_study = sub.add_parser(
        "study", help="solve across a sweep of N or m values")
    _add_common(p_study)
    p_study.add_argument("--sweep", required=True, metavar="V1,V2,...",
                         help="strictly increasing N (pc) or m (collocation) "
                              "values")

    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # an unknown option is a usage error of its subcommand
        {"run": p_run, "study": p_study}.get(args.command, parser).error(
            f"unrecognized arguments: {' '.join(unknown)}")
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args, p_run)
        return _cmd_study(args, p_study)
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BandvieError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
