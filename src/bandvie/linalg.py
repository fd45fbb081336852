"""Dense LU solver with partial pivoting for the small square systems here.

Sizes stay modest (start-value systems are n x n, collocation systems are
(n*m) x (n*m) with n*m around 50), so a plain factorization with one step
of iterative refinement is plenty.  All operations work on caller-owned
arrays; a factorization can be cached and shared read-only.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

#: a pivot below this times the largest initial column magnitude aborts
PIVOT_RTOL = 1e-13

#: refine once when the residual exceeds this times max(1, ||b||_inf)
REFINE_RTOL = 1e-10


class LUFactorization:
    """PA = LU factorization with partial (row) pivoting."""

    def __init__(self, a):
        a = np.array(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        n = a.shape[0]
        scale = float(np.max(np.abs(a))) if n else 0.0
        threshold = PIVOT_RTOL * scale
        perm = np.arange(n)
        for k in range(n):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            pivot = abs(a[p, k])
            if pivot <= threshold:
                raise SingularMatrixError(step=k + 1, pivot=pivot,
                                          threshold=threshold)
            if p != k:
                a[[k, p]] = a[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            a[k + 1:, k] /= a[k, k]
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
        self._lu = a
        self._perm = perm
        self.shape = (n, n)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        n = self.shape[0]
        if b.shape != (n,):
            raise ValueError(f"right-hand side must have shape ({n},)")
        x = b[self._perm].copy()
        lu = self._lu
        for k in range(1, n):
            x[k] -= lu[k, :k] @ x[:k]
        for k in range(n - 1, -1, -1):
            x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
        return x


def residual(a, x, b):
    """Infinity norm of A x - b."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a @ x - b))) if b.size else 0.0


def refined_solve(fact, a, b):
    """Solve with a cached factorization plus one refinement step if needed."""
    b = np.asarray(b, dtype=float)
    x = fact.solve(b)
    bound = REFINE_RTOL * max(1.0, float(np.max(np.abs(b))) if b.size else 0.0)
    if residual(a, x, b) > bound:
        x = x + fact.solve(b - a @ x)
    return x

