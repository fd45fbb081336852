"""Dense LU solver with partial pivoting for the small square systems here.

Sizes stay modest (start-value systems are n x n, collocation systems are
(n*m) x (n*m) with n*m around 50), so a plain factorization with one step
of iterative refinement is plenty.  All operations work on caller-owned
arrays; a factorization can be cached and shared read-only.

:func:`lu_factor_stack` factorizes a whole stack of small matrices (the
pc step matrices) in one elimination, one column at a time over the
stack, with the same pivoting and threshold as :class:`LUFactorization`
and the same bits per matrix; :func:`lu_inverse_stack` inverts the whole
stack from those factors.  The two eliminations share only the order of
substitution: for a single matrix the column loop of
:class:`LUFactorization` is the faster one.

:meth:`LUFactorization.solve` substitutes forward, row k taking the dot
product of L's row k left of the diagonal with x[:k], then backward, row k
taking that of U's row k right of the diagonal with x[k+1:] and dividing
by the pivot.  Those rows and the pivots are copied out of the factors
once, when the matrix is factorized, so a solve slices nothing but x.
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
        # per row of the substitutions: L's row left of the diagonal, and
        # from the last row up U's row right of it and the pivot
        self._lower = [(k, a[k, :k].copy()) for k in range(1, n)]
        self._upper = [(k, a[k, k + 1:].copy(), float(a[k, k]))
                       for k in range(n - 1, -1, -1)]

    def solve(self, b):
        """x with A x = b, substituted from the rows kept at factorization."""
        b = np.asarray(b, dtype=float)
        n = self.shape[0]
        if b.shape != (n,):
            raise ValueError(f"right-hand side must have shape ({n},)")
        x = b[self._perm]
        for k, row in self._lower:
            x[k] -= row.dot(x[:k])
        for k, row, pivot in self._upper:
            x[k] = (x[k] - row.dot(x[k + 1:])) / pivot
        return x


def lu_factor_stack(a):
    """PA = LU of every matrix of a (count, n, n) stack; returns (lu, perm).

    ``lu`` is (count, n, n) and ``perm`` (count, n), each matrix's entry
    equal bit for bit to ``LUFactorization`` of that matrix alone
    (``_lu``, ``_perm``): every column is eliminated over the whole stack
    with the same pivot choice, threshold and operations.

    Raises
    ------
    SingularMatrixError
        For the first matrix of the stack (lowest index) whose pivot falls
        below its threshold, with that ``index``, the elimination step,
        the pivot and the threshold.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"stack must be (count, n, n), got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    count, n = a.shape[:2]
    threshold = PIVOT_RTOL * np.max(np.abs(a), axis=(1, 2), initial=0.0)
    perm = np.tile(np.arange(n), (count, 1))
    each = np.arange(count)
    fail_step = np.zeros(count, dtype=int)   # 0: no pivot failed
    fail_pivot = np.zeros(count)
    # a failed matrix is eliminated on (its values are not used), so the
    # first failure of every matrix is known when the loop ends
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            p = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
            pivot = np.abs(a[each, p, k])
            new = (pivot <= threshold) & (fail_step == 0)
            fail_step[new] = k + 1
            fail_pivot[new] = pivot[new]
            row = a[each, k]
            a[each, k] = a[each, p]
            a[each, p] = row
            perm[each, k], perm[each, p] = perm[each, p], perm[each, k]
            a[:, k + 1:, k] /= a[:, k, k, None]
            a[:, k + 1:, k + 1:] -= a[:, k + 1:, k, None] * a[:, k, None, k + 1:]
    failed = np.flatnonzero(fail_step)
    if failed.size:
        i = int(failed[0])
        raise SingularMatrixError(step=int(fail_step[i]),
                                  pivot=float(fail_pivot[i]),
                                  threshold=float(threshold[i]), index=i)
    return a, perm


def lu_inverse_stack(lu, perm):
    """The inverse of every matrix of a stack from its factors PA = LU.

    ``lu`` and ``perm`` are as :func:`lu_factor_stack` returns them; the
    unit columns of P are substituted over the whole stack at once, in
    the order of :meth:`LUFactorization.solve`.
    """
    count, n = perm.shape
    x = np.zeros((count, n, n))
    x[np.arange(count)[:, None], np.arange(n), perm] = 1.0
    for k in range(1, n):
        x[:, k] -= (lu[:, k, None, :k] @ x[:, :k])[:, 0]
    for k in range(n - 1, -1, -1):
        x[:, k] -= (lu[:, k, None, k + 1:] @ x[:, k + 1:])[:, 0]
        x[:, k] /= lu[:, k, k, None]
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

