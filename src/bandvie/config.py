"""YAML problem configs.

Schema (formulas use the expression grammar of :mod:`bandvie.expr`)::

    name: my-problem        # optional, defaults to the file path
    n: 2                    # number of kernel bands
    T: 2.0                  # horizon
    alpha: ["t/2"]          # n-1 interior discontinuity curves (in t)
    K:                      # kernels, one row per equation, one per band
      - ["1+t+s", "1"]
      - ["1+t-s", "-1"]
    G:                      # nonlinearities in (s, x), same shape as K
      - ["x", "x"]
      - ["x", "x"]
    f: ["...", "..."]       # right-hand sides (in t), one per equation
    unknown_of_band: [1, 2] # optional, defaults to the identity map
    exact: ["cos(t)", "sin(t)"]   # optional, enables error reports
    guess: ["0", "0"]       # optional initial guess, defaults to 0

Numbers are accepted wherever a formula is expected.  ``n`` must be a
positive integer and ``T`` a positive finite number
(:class:`~bandvie.problem.CurveFamily` checks it); neither may be a
boolean.  Configs are parsed with libyaml when PyYAML was built with it.
"""

from __future__ import annotations

import yaml

from .errors import ProblemDefinitionError
from .problem import CurveFamily, VolterraSystem

_REQUIRED = ("n", "T", "K", "G", "f")
_KNOWN = set(_REQUIRED) | {"alpha", "unknown_of_band", "exact", "guess", "name"}

#: libyaml's safe loader when PyYAML has it; both build the same mappings
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def problem_from_mapping(data, name=""):
    """Build a :class:`VolterraSystem` from a parsed config mapping."""
    if not isinstance(data, dict):
        raise ProblemDefinitionError("config must be a mapping of keys")
    unknown = set(data) - _KNOWN
    if unknown:
        raise ProblemDefinitionError(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise ProblemDefinitionError(
            f"missing config keys: {', '.join(missing)}")

    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ProblemDefinitionError(f"n must be a positive integer, got {n!r}")

    alpha = data.get("alpha", [])
    if not isinstance(alpha, list) or len(alpha) != n - 1:
        raise ProblemDefinitionError(
            f"alpha must list the {n - 1} interior curves, "
            f"got {len(alpha) if isinstance(alpha, list) else alpha!r}")

    label = data.get("name")
    if label is not None and not isinstance(label, str):
        raise ProblemDefinitionError(f"name must be a string, got {label!r}")
    for key in ("f", "exact", "guess", "unknown_of_band"):
        value = data.get(key)
        if not isinstance(value, list) and (key == "f" or value is not None):
            raise ProblemDefinitionError(f"{key} must be a list, got {value!r}")
    for key in ("K", "G"):
        rows = data[key]
        if (not isinstance(rows, list)
                or not all(isinstance(r, list) and len(r) == n for r in rows)):
            raise ProblemDefinitionError(
                f"{key} must be a list of rows with {n} entries each")
    if len(data["K"]) != len(data["f"]) or len(data["G"]) != len(data["f"]):
        raise ProblemDefinitionError(
            "K and G must have one row per entry of f")

    try:
        return VolterraSystem(
            curves=CurveFamily(horizon=data["T"], interior=tuple(alpha)),
            kernels=data["K"],
            nonlinearities=data["G"],
            rhs=data["f"],
            unknown_of_band=data.get("unknown_of_band"),
            exact=data.get("exact"),
            guess=data.get("guess"),
            name=name if label is None else label,
        )
    except ProblemDefinitionError:
        raise
    except Exception as exc:
        raise ProblemDefinitionError(f"bad problem config: {exc}") from exc


def load_problem(path):
    """Load a problem from a YAML config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ProblemDefinitionError(f"cannot parse {path}: {exc}") from exc
    return problem_from_mapping(data, name=str(path))
