"""The benchmark's workloads, the parsing of their CSV reports and the
correctness gate against the reference recorded in ``reference.json``.

A workload is a fixed list of ``bandvie study`` invocations; the seed only
shuffles their order.  Every solve (one CSV row) is checked against the
reference: the same error class, an accuracy at most 1 % worse, and the
same iteration count unless the accuracy improved.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SAMPLE_PROBLEM = HERE / "problems" / "sample_problem.yaml"
REFERENCE = HERE / "reference.json"

#: a solve may read this much worse than the reference before it mismatches
ACCURACY_RTOL = 0.01

#: band for eps(N) / eps(2N) on a first-order pc sweep (paper criterion 3)
DOUBLING_RATIO = (1.4, 3.0)


@dataclass(frozen=True)
class Invocation:
    """One ``bandvie study`` call; ``label`` prefixes its solve keys."""

    label: str
    argv: tuple
    first_order: bool = False    # check the pc mesh-doubling error ratios


def study(source, method, sweep, iters=None, first_order=False):
    """Invocation for a builtin name or a config path (``.yaml``)."""
    if source.endswith(".yaml"):
        argv = ["--config", source]
        label = Path(source).stem.replace("_", "-")
    else:
        argv = ["--builtin", source]
        label = source
    argv += ["--method", method, "--sweep", sweep]
    if iters is not None:
        argv += ["--iters", str(iters)]
    return Invocation(f"{label} {method}", tuple(argv), first_order)


_DEGREES = ",".join(str(m) for m in range(2, 13))

#: the invocations of each workload; bench/README.md gives the reasons
WORKLOADS = {
    "pc-setup": (
        study("nonlinear-scalar", "pc", "32,64,128,256,512",
              first_order=True),
    ),
    "pc-iterate": (
        study("nonlinear-sys1", "pc", "32,64", iters=60),
        study("nonlinear-sys2", "pc", "32,64,128", iters=60),
    ),
    "colloc-sweep": (
        study("model02", "collocation", _DEGREES),
        study("nonlinear-sys2", "collocation", _DEGREES),
    ),
    "cli-residual": (
        study(str(SAMPLE_PROBLEM), "pc", "32,64,128"),
        study(str(SAMPLE_PROBLEM), "collocation", "2,4,6,8"),
    ),
}


def ordered(workload, seed):
    """The workload's invocations in the order the seed picks."""
    invocations = list(WORKLOADS[workload])
    random.Random(seed).shuffle(invocations)
    return invocations


@dataclass(frozen=True)
class SolveRow:
    """One CSV row of a study: a sweep point that solved or failed."""

    key: str                 # "<label> <parameter>=<value>"
    value: float = None      # eps, or residual_sup without an exact solution
    iterations: int = None
    error: str = None        # the error message of a failed sweep point


def parse_study_csv(label, text):
    """Rows of one ``study --format csv`` report."""
    header, *body = csv.reader(io.StringIO(text, newline=""))
    param = header[0]
    rows = []
    for cells in body:
        rec = dict(zip(header, cells))
        value = rec.get("eps") or rec.get("residual_sup")
        rows.append(SolveRow(
            key=f"{label} {param}={rec[param]}",
            value=float(value) if value else None,
            iterations=int(rec["iterations"]) if rec.get("iterations")
            else None,
            error=rec.get("error") or None))
    return rows


def count_failures(rows):
    """Sweep points that ended in an error row."""
    return sum(row.error is not None for row in rows)


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_entry(row, error_class):
    """The reference record for a solve: its error class or its accuracy."""
    if error_class is not None:
        return {"error": error_class}
    return {"error": None, "value": row.value, "iterations": row.iterations}


def check_solve(row, error_class, ref):
    """Compare one solve with its reference record.

    Returns ``(status, detail)`` with status ``"ok"``, ``"recovered"`` (a
    known failure that now solves; not an error) or ``"mismatch"``.
    """
    if ref is None:
        return "mismatch", "no reference for this solve"
    if ref["error"] is not None:
        if error_class is None:
            return "recovered", f"{ref['error']} now solves, value {row.value!r}"
        if error_class != ref["error"]:
            return "mismatch", f"{error_class} where {ref['error']} was expected"
        return "ok", ""
    if error_class is not None:
        return "mismatch", f"new failure {error_class}: {row.error}"
    if row.value is None or not math.isfinite(row.value) or row.value <= 0:
        return "mismatch", f"no accuracy reported ({row.value!r})"
    if row.value > ref["value"] * (1.0 + ACCURACY_RTOL):
        return "mismatch", (f"accuracy {row.value!r} worse than the "
                            f"reference {ref['value']!r}")
    improved = row.value < ref["value"] * (1.0 - ACCURACY_RTOL)
    if row.iterations != ref["iterations"] and not improved:
        return "mismatch", (f"{row.iterations} iterations where the "
                            f"reference took {ref['iterations']}")
    return "ok", ""


def first_order_violations(rows):
    """Mesh doublings whose error ratio leaves :data:`DOUBLING_RATIO`."""
    lo, hi = DOUBLING_RATIO
    bad = []
    for coarse, fine in zip(rows, rows[1:]):
        if coarse.value is None or fine.value is None:
            continue
        ratio = coarse.value / fine.value
        if not lo <= ratio <= hi:
            bad.append(f"{coarse.key} -> {fine.key}: ratio {ratio:.3f}")
    return bad
