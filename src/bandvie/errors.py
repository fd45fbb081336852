"""Exception hierarchy shared across the package."""


class BandvieError(Exception):
    """Base class for all package-specific errors."""


class ExpressionSyntaxError(BandvieError):
    """Malformed expression text; carries the character offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class SingularMatrixError(BandvieError):
    """LU elimination met a pivot below the singularity threshold.

    ``index`` is the 0-based position of the failing matrix when a stack
    of matrices is factorized together (None for a single matrix).
    """

    def __init__(self, step, pivot, threshold, index=None):
        super().__init__(
            f"matrix numerically singular at elimination step {step} "
            f"(pivot {pivot:.3e}, threshold {threshold:.3e})"
        )
        self.step = step
        self.pivot = pivot
        self.threshold = threshold
        self.index = index


class CurveOrderingError(BandvieError):
    """Discontinuity curves failed the ordering 0 <= a_1 <= ... <= a_{n-1} <= t."""


class ProblemDefinitionError(BandvieError):
    """A problem definition (builtin name, config file, shapes) is invalid."""


class SolverError(BandvieError):
    """A discretized solve failed (singular step system, inconsistent history...)."""


class DivergenceError(SolverError):
    """The outer iteration diverged; the partial iteration report is attached."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report
