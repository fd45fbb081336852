"""Error measurement and report serialization (table, CSV, JSON).

The sup-norm error of component i is measured over [0, D_i], where D_i is
the right end of the interval on which the component is determined (the
largest curve value at the horizon among the bands feeding it), on a dense
uniform sample, built once per system and kept in a table of this module
(:func:`error_samples`).  The aggregate error is the Euclidean norm of
the per-component sup errors.
"""

from __future__ import annotations

import io
import json
import weakref
from dataclasses import dataclass

import numpy as np

#: sample points per component interval for sup-error measurement
ERROR_SAMPLES = 2001


@dataclass(frozen=True)
class ComponentError:
    component: int
    sup_error: float
    t_max: float


#: per system, its :func:`error_samples`, dropped with the system
_ERROR_GRIDS = weakref.WeakKeyDictionary()


def _read_only(values):
    values.flags.writeable = False
    return values


def error_samples(system):
    """Per component ``(ts, exact values)``: the grid errors are measured on.

    ``ts`` holds ``ERROR_SAMPLES`` uniform points on [0, D_i].  Computed on
    the first call for a system and kept, read-only, while the system
    lives: its domains and exact expressions do not change.  Raises
    ``ValueError`` for a system without an exact solution.
    """
    grids = _ERROR_GRIDS.get(system)
    if grids is None:
        if system.exact is None:
            raise ValueError(f"system {system.name!r} has no exact solution")
        grids = []
        for domain, expr in zip(system.component_domains(), system.exact):
            ts = np.linspace(0.0, domain, ERROR_SAMPLES)
            grids.append((_read_only(ts), _read_only(np.array(
                np.broadcast_to(np.asarray(expr(t=ts), float), ts.shape)))))
        grids = _ERROR_GRIDS[system] = tuple(grids)
    return grids


def measure_errors(solution, system):
    """Per-component sup errors against the exact solution plus the aggregate.

    Returns (tuple of ComponentError, aggregate).  The grids and the exact
    values come from :func:`error_samples`; only the solution is evaluated
    per call.
    """
    out = []
    for i, (ts, exact) in enumerate(error_samples(system), start=1):
        got = np.asarray(solution.component_values(i, ts), dtype=float)
        diff = np.abs(exact - got)
        arg = int(np.argmax(diff))
        out.append(ComponentError(component=i, sup_error=float(diff[arg]),
                                  t_max=float(ts[arg])))
    aggregate = float(np.sqrt(sum(c.sup_error ** 2 for c in out)))
    return tuple(out), aggregate


@dataclass
class SolveReport:
    """Everything a single solve produced, ready for serialization."""

    problem: str
    method: str                      # "pc" | "collocation"
    parameter_name: str              # "N" | "m"
    parameter_value: int
    component_errors: tuple = ()     # empty when no exact solution is known
    aggregate_error: float = None
    residual_sup: float = None       # reported when no exact solution exists
    iterations: object = None        # IterationReport or None
    wall_time: float = None
    error_message: str = None        # set for failed sweep points


def _columns(report):
    """Ordered (name, value) pairs for one report row."""
    cols = [(report.parameter_name, report.parameter_value)]
    for ce in report.component_errors:
        cols.append((f"eps_{ce.component}", ce.sup_error))
        cols.append((f"t_max_{ce.component}", ce.t_max))
    if report.aggregate_error is not None:
        cols.append(("eps", report.aggregate_error))
    if report.residual_sup is not None:
        cols.append(("residual_sup", report.residual_sup))
    if report.iterations is not None:
        cols.append(("iterations", len(report.iterations.records)))
    if report.error_message is not None:
        cols.append(("error", report.error_message))
    return cols


def report_rows(reports):
    """Shared header plus one row of values per report.

    Wall time is intentionally excluded so that repeated runs serialize
    byte-identically; it is shown by the human-readable table only.
    """
    header = []
    for rep in reports:
        for name, _ in _columns(rep):
            if name not in header:
                header.append(name)
    rows = []
    for rep in reports:
        lookup = dict(_columns(rep))
        rows.append([lookup.get(name) for name in header])
    return header, rows


def _cell_csv(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(c in text for c in ",\"\r\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def to_csv(reports):
    """RFC-4180-style CSV (CRLF line endings, header row, full precision)."""
    header, rows = report_rows(reports)
    buf = io.StringIO()
    buf.write(",".join(header) + "\r\n")
    for row in rows:
        buf.write(",".join(_cell_csv(v) for v in row) + "\r\n")
    return buf.getvalue()


def to_json(reports):
    """JSON array of row objects carrying exactly the CSV numbers."""
    header, rows = report_rows(reports)
    return json.dumps(
        [dict(zip(header, row)) for row in rows], indent=2) + "\n"


def _cell_table(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    if len(text) > 60:  # long error messages; CSV/JSON keep the full text
        text = text[:57] + "..."
    return text


def format_table(reports, title=None):
    """Aligned human-readable table with 6 significant digits."""
    header, rows = report_rows(reports)
    cells = [header] + [[_cell_table(v) for v in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    times = [r.wall_time for r in reports if r.wall_time is not None]
    if times:
        lines.append(f"(wall time {sum(times):.3f} s)")
    return "\n".join(lines) + "\n"
