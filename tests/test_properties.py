"""Generated runs: a run that stops on the tolerance has a finite iterate.

A term that is singular at t = 0 or inside [0, T] is added to f_1 of a
builtin, and the problem is solved without validation.  The run may fail
with a named error, or stop at the iteration cap, but it must never report
"tolerance" for an iterate that is not finite on the norm grid.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bandvie.errors import BandvieError
from bandvie.newton import NORM_SAMPLES, iterate
from bandvie.problem import VolterraSystem
from bandvie.registry import builtin, list_builtins

#: terms singular at t = 0 (an infinite slope, log 0) or inside [0, T]
#: (a pole, log 0 or nan past a point), some of them zero at t = 0
SINGULAR_TERMS = ("sqrt(t)", "t*log(t)", "log(t)", "1/(t-0.5)",
                  "sqrt(t-0.5)", "t/(t-0.6)", "t*log(1-t)", "t*sqrt(0.75-t)")

_METHODS = st.one_of(
    st.tuples(st.just("collocation"), st.integers(2, 6)),
    st.tuples(st.just("pc"), st.integers(8, 32)))


def _with_singular_f1(system, term):
    return VolterraSystem(
        curves=system.curves, kernels=system.kernels,
        nonlinearities=system.nonlinearities,
        rhs=[f"{system.rhs[0]} + {term}", *map(str, system.rhs[1:])],
        unknown_of_band=system.unknown_of_band, guess=system.guess,
        name=system.name)


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from([name for name, _ in list_builtins()]),
       method=_METHODS, term=st.sampled_from(SINGULAR_TERMS))
def test_no_tolerance_stop_on_a_non_finite_iterate(name, method, term):
    system = _with_singular_f1(builtin(name), term)
    kind, size = method
    key = "degree" if kind == "collocation" else "n_segments"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solution, report = iterate(system, method=kind,
                                       skip_validation=True, **{key: size})
    except BandvieError:
        return
    if report.stop_reason != "tolerance":
        return
    for i, domain in enumerate(solution.component_domains, start=1):
        ts = np.linspace(0.0, domain, NORM_SAMPLES)
        values = np.asarray(solution.component_values(i, ts), dtype=float)
        assert np.all(np.isfinite(values)), (name, method, term, i)
