"""Passes over a workload, their correctness check and their metrics.

``bench/run.py`` is the command-line entry; see its docstring.  A pass
drives the library only through ``bandvie.cli.main(["study", ...])``.
Untraced passes carry only the few wrappers the end-to-end metrics need;
traced passes wrap every layer boundary (``bench.tracing``).  The
end-to-end times are scaled by the speed the machine had around each pass
(``bench.speed``); the info line gives them unscaled as well.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy

from bench.speed import REFERENCE_S, kernel_seconds
from bench.tracing import (
    Tracer, e2e_targets, layer_targets, self_times, solve_outcomes,
    solve_phases, top_level_seconds)
from bench.workloads import (
    REFERENCE, WORKLOADS, check_solve, count_failures, first_order_violations,
    load_reference, ordered, parse_study_csv, reference_entry)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: end-to-end metrics (untraced passes) and their units
E2E_METRICS = {
    "wall_s": "s",
    "setup_s": "s",
    "iter_ms": "ms",
    "iterations": "count",
    "solved_frac": "fraction",
    "err_digits": "digits",
    "peak_rss_mb": "MB",
}

#: per-layer self-time metrics and the spans whose self time each sums
SELF_TIME_METRICS = {
    "cli.load_s": ("cli.load",),
    "problem.validate_s": ("problem.validate",),
    "newton.iterate_s": ("newton.iterate",),
    "newton.plan_s": ("newton.plan",),
    "newton.psi_s": ("newton.psi",),
    "newton.norm_s": ("newton.norm",),
    "solver.assemble_s": ("pc.assemble", "collocation.assemble"),
    "solver.solve_s": ("pc.solve", "collocation.solve"),
    "linalg.lu_s": ("linalg.lu",),
    "linalg.solve_s": ("linalg.solve",),
    "quadrature.self_s": ("quadrature.decompose", "quadrature.midpoints",
                          "quadrature.split"),
    "expr.self_s": ("expr.call",),
    "oracle.self_s": ("report.errors", "problem.residual"),
    "report.serialize_s": ("report.serialize",),
}

#: per-layer call counts and the spans they count
CALL_METRICS = {
    "newton.psi_calls": ("newton.psi",),
    "solver.solve_calls": ("pc.solve", "collocation.solve"),
    "linalg.lu_calls": ("linalg.lu",),
    "quadrature.decompose_calls": ("quadrature.decompose",),
    "quadrature.midpoints_calls": ("quadrature.midpoints",),
    "expr.calls": ("expr.call",),
    "oracle.calls": ("report.errors", "problem.residual"),
}

#: remaining per-layer metrics and their units
OTHER_LAYER_METRICS = {
    "linalg.lu_n_max": "rows",
    "linalg.lu_unique_frac": "fraction",
    "quadrature.nodes": "count",
    "expr.points": "count",
    "trace.other_s": "s",
    "trace.pass_s": "s",
}


def layer_metric_units():
    units = {name: "s" for name in SELF_TIME_METRICS}
    units.update({name: "count" for name in CALL_METRICS})
    units.update(OTHER_LAYER_METRICS)
    return units


class BenchmarkError(Exception):
    """The workload could not be run as defined."""


@dataclass
class Pass:
    """One pass over a workload's invocations."""

    seconds: float
    tracer: Tracer
    reports: dict            # invocation label -> CSV text
    warnings: Counter        # warning category name -> count
    scale: float = 1.0       # REFERENCE_S over the kernel time around it


def run_pass(cli, tracer, invocations, targets):
    reports = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        with tracer.installed(targets):
            for inv in invocations:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["study", *inv.argv, "--format", "csv"])
                if code != 0:
                    raise BenchmarkError(
                        f"{inv.label}: bandvie study exited with {code}")
                reports[inv.label] = out.getvalue()
        seconds = time.perf_counter() - start
    return Pass(seconds, tracer, reports,
                Counter(w.category.__name__ for w in caught))


def solve_rows(p, invocations):
    """(row, error class) per solve of a pass, in the order they ran."""
    rows = [row for inv in invocations
            for row in parse_study_csv(inv.label, p.reports[inv.label])]
    outcomes = solve_outcomes(p.tracer.spans)
    if len(outcomes) != len(rows):
        raise BenchmarkError(
            f"{len(rows)} report rows for {len(outcomes)} solves")
    return [(row, cls if cls is not None
             else ("ErrorAfterSolve" if row.error else None))
            for row, cls in zip(rows, outcomes)]


@dataclass
class Check:
    """Correctness of one pass plus its accuracy figures."""

    solves: int
    solved: int
    mismatches: list         # solves that disagree with the reference
    recovered: list
    digits: list             # -log10 accuracy of the reference-solved solves
    ratio_violations: list   # first-order mesh doublings out of band


def check_pass(p, invocations, reference):
    solved_rows = solve_rows(p, invocations)
    mismatches, recovered, digits = [], [], []
    for row, cls in solved_rows:
        ref = reference.get(row.key)
        status, detail = check_solve(row, cls, ref)
        if status == "mismatch":
            mismatches.append(f"{row.key}: {detail}")
        elif status == "recovered":
            recovered.append(f"{row.key}: {detail}")
        elif ref["error"] is None:
            digits.append(-math.log10(row.value))
    violations = []
    for inv in invocations:
        if inv.first_order:
            rows = [row for row, _ in solved_rows
                    if row.key.startswith(inv.label + " ")]
            violations += first_order_violations(rows)
    solved = len(solved_rows) - count_failures(row for row, _ in solved_rows)
    return Check(len(solved_rows), solved, mismatches, recovered, digits,
                 violations)


def measure(cli, invocations, seconds, trace, gauge=kernel_seconds):
    """Untraced (and, with ``trace``, traced) passes within ``seconds``.

    ``gauge`` is timed before every pass and after the last one; each pass
    gets the scale ``REFERENCE_S`` over the mean of the two times around it.
    """
    targets = {False: e2e_targets(), True: layer_targets()}
    passes = {False: [], True: []}
    start = time.perf_counter()
    before = gauge()
    for traced in itertools.cycle((False, True) if trace else (False,)):
        history = passes[traced]
        if history:
            estimate = statistics.median(q.seconds for q in history)
            if time.perf_counter() - start + estimate > seconds:
                break
        p = run_pass(cli, Tracer(), invocations, targets[traced])
        after = gauge()
        p.scale = REFERENCE_S / ((before + after) / 2)
        before = after
        history.append(p)
    return passes[False], passes[True]


def tail_percentile(samples):
    """Highest of p50/p75/p90/p95/p99 with ten samples beyond it."""
    best = None
    for pct in (50, 75, 90, 95, 99):
        if len(samples) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100)
            best = (pct, cuts[pct - 1])
    return best


def e2e_metrics(passes, check):
    """End-to-end metrics of the untraced passes, times scaled per pass."""
    phases = [solve_phases(p.tracer.spans) for p in passes]
    iterations = [s * p.scale for p, (_, its) in zip(passes, phases)
                  for s in its]
    values = {
        "wall_s": statistics.median(p.seconds * p.scale for p in passes),
        "setup_s": statistics.median(sum(setup) * p.scale
                                     for p, (setup, _) in zip(passes, phases)),
        "iter_ms": 1e3 * statistics.median(iterations),
        "iterations": len(phases[0][1]),
        "solved_frac": check.solved / check.solves,
        "err_digits": statistics.fmean(check.digits),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_iterations = [s for _, its in phases for s in its]
    detail = {"pass_seconds": [p.seconds for p in passes],
              "pass_setup_seconds": [sum(s) for s, _ in phases],
              "pass_scales": [p.scale for p in passes],
              "unscaled": {
                  "wall_s": statistics.median(p.seconds for p in passes),
                  "setup_s": statistics.median(sum(s) for s, _ in phases),
                  "iter_ms": 1e3 * statistics.median(raw_iterations)},
              "iter_samples": len(iterations),
              "iterations_per_pass": sorted({len(its) for _, its in phases})}
    tail = tail_percentile(iterations)
    if tail is not None:
        detail[f"iter_ms_p{tail[0]}"] = 1e3 * tail[1]
    return values, detail


def layer_metrics(traced, untraced):
    """Per-layer metrics of the median traced pass."""
    p = sorted(traced, key=lambda q: q.seconds)[(len(traced) - 1) // 2]
    t = p.tracer
    own = self_times(t.spans, t.leaves)
    values = {name: sum(own.get(s, 0.0) for s in spans)
              for name, spans in SELF_TIME_METRICS.items()}
    values.update({name: sum(t.counts[s] for s in spans)
                   for name, spans in CALL_METRICS.items()})
    lu_calls = t.counts["linalg.lu"]
    values.update({
        "linalg.lu_n_max": t.lu_n_max,
        "linalg.lu_unique_frac":
            len(t.lu_digests) / lu_calls if lu_calls else 1.0,
        "quadrature.nodes": t.counts["quadrature.nodes"],
        "expr.points": t.counts["expr.points"],
        "trace.other_s": p.seconds - top_level_seconds(t.spans, t.leaves),
        "trace.pass_s": p.seconds,
    })
    return values, p, own


def write_trace(name, seed, p, own, values, untraced):
    """Spans file and per-layer table of the reported traced pass."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}"
    t = p.tracer
    origin = t.spans[0][1] if t.spans else 0.0
    with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
        for index, (span, start, end, parent, error) in enumerate(t.spans):
            fh.write(json.dumps({
                "id": index, "name": span, "parent": parent,
                "start_s": start - origin, "end_s": end - origin,
                "error": error}) + "\n")
        for (parent, leaf), (calls, seconds) in sorted(t.leaves.items()):
            fh.write(json.dumps({"leaf": leaf, "parent": parent,
                                 "calls": calls, "seconds": seconds}) + "\n")
    untraced_s = statistics.median(q.seconds for q in untraced)
    lines = [f"workload {name}, seed {seed}: traced pass "
             f"{p.seconds:.4f} s, untraced pass {untraced_s:.4f} s "
             f"(median of {len(untraced)}), tracing overhead "
             f"{p.seconds - untraced_s:.4f} s",
             "",
             f"{'span':<22}{'calls':>10}{'self_s':>12}{'share':>9}"]
    for span in sorted(own, key=own.get, reverse=True):
        lines.append(f"{span:<22}{t.counts[span]:>10}{own[span]:>12.4f}"
                     f"{own[span] / p.seconds:>9.1%}")
    other = values["trace.other_s"]
    lines.append(f"{'(outside every span)':<22}{'':>10}{other:>12.4f}"
                 f"{other / p.seconds:>9.1%}")
    lines.append(f"self times + outside = {sum(own.values()) + other:.6f} s;"
                 f" traced pass = {p.seconds:.6f} s")
    lines.append("")
    lines += [f"{metric} = {value!r}" for metric, value in values.items()]
    Path(f"{stem}.layers.txt").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")
    return stem


def environment():
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS")},
    }


def run(args):
    from bandvie import cli

    invocations = ordered(args.workload, args.seed)
    reference = load_reference()
    print(json.dumps({"env": environment()}), flush=True)
    untraced, traced = measure(cli, invocations, args.seconds, args.trace)

    checks = [check_pass(p, invocations, reference)
              for p in untraced + traced]
    first = untraced[0]
    failed = sum(len(c.mismatches) for c in checks)
    problems = checks[0].mismatches + [
        f"first-order ratio out of band: {v}"
        for v in checks[0].ratio_violations]
    if any(p.reports != first.reports or p.warnings != first.warnings
           for p in untraced[1:] + traced):
        problems.append("reports or warnings differ between passes")

    e2e, detail = e2e_metrics(untraced, checks[0])
    if len(detail["iterations_per_pass"]) > 1:
        problems.append("iteration counts differ between passes")
    detail.update({
        "workload": args.workload, "seed": args.seed,
        "order": [inv.label for inv in invocations],
        "passes": len(untraced), "traced_passes": len(traced),
        "solves_per_pass": checks[0].solves,
        "solved_per_pass": checks[0].solved,
        "warnings_per_pass": dict(first.warnings),
        "recovered": checks[0].recovered,
        "problems": problems[:20],
    })
    if args.trace:
        metrics, p, own = layer_metrics(traced, untraced)
        units = layer_metric_units()
        detail["trace_files"] = str(write_trace(
            args.workload, args.seed, p, own, metrics, untraced))
        detail["trace_overhead_s"] = p.seconds - detail["unscaled"]["wall_s"]
    else:
        metrics, units = e2e, E2E_METRICS
    print(json.dumps({"info": detail}), flush=True)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": sum(c.solves for c in checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def write_reference():
    """Record every solve's error class or accuracy in reference.json."""
    from bandvie import cli

    reference = {}
    for invocations in WORKLOADS.values():
        p = run_pass(cli, Tracer(), invocations, e2e_targets())
        for row, cls in solve_rows(p, invocations):
            reference[row.key] = reference_entry(row, cls)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                         encoding="utf-8")
    print(f"wrote {len(reference)} solves to {REFERENCE}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Run one bandvie benchmark workload.")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rerecord bench/reference.json and exit")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bandvie" / "__init__.py").is_file():
        sys.stderr.write(f"error: no bandvie sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return write_reference()
    try:
        return run(args)
    except BenchmarkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
