import warnings

import pytest
from hypothesis import settings

from bandvie.collocation import ConditioningWarning
from bandvie.registry import builtin

# CI runs the same examples on every run (--hypothesis-profile=ci), with no
# per-example deadline on a shared runner
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(autouse=True)
def _quiet_conditioning():
    # high-degree runs warn on purpose; keep test output clean
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        yield


@pytest.fixture(scope="session")
def model01():
    return builtin("model01")


@pytest.fixture(scope="session")
def model02():
    return builtin("model02")


@pytest.fixture(scope="session")
def scalar():
    return builtin("nonlinear-scalar")


@pytest.fixture(scope="session")
def sys1():
    return builtin("nonlinear-sys1")


@pytest.fixture(scope="session")
def sys2():
    return builtin("nonlinear-sys2")
