import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bandvie import collocation
from bandvie.collocation import CollocationDiscretization
from bandvie.errors import SingularMatrixError, SolverError
from bandvie.linalg import (
    LUFactorization,
    lu_factor_stack,
    lu_inverse_stack,
    residual,
)
from bandvie.problem import linearize
from bandvie.registry import builtin

from helpers import lu_factor_reference, lu_solve, lu_substitute


def test_identity():
    b = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(lu_solve(np.eye(3), b), b)


def test_model01_start_value_system_assembled_by_hand():
    # kernels at the origin (1, 1; 1, -1) times the curve-slope differences
    # (1/2, 1/2), right-hand side f'(0) = (1/2, 1/2); the exact solution
    # starts at (cos 0, sin 0) = (1, 0)
    a = np.array([[0.5, 0.5], [0.5, -0.5]])
    b = np.array([0.5, 0.5])
    x = lu_solve(a, b)
    assert np.allclose(x, [1.0, 0.0], atol=1e-14)


def test_rank_deficient_raises_with_step():
    with pytest.raises(SingularMatrixError) as exc:
        lu_solve(np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 2.0]))
    assert exc.value.step == 2
    assert "singular" in str(exc.value)


def test_zero_matrix_raises_at_first_step():
    with pytest.raises(SingularMatrixError) as exc:
        lu_solve(np.zeros((3, 3)), np.zeros(3))
    assert exc.value.step == 1


def test_non_finite_rejected():
    a = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        lu_solve(a, np.array([1.0, 1.0]))


def test_residual_examples():
    assert residual(np.eye(2), [1.0, 2.0], [1.0, 2.0]) == 0.0
    assert residual([[2.0]], [1.0], [2.0]) == 0.0
    assert residual([[2.0]], [1.0], [3.0]) == 1.0


def test_random_diagonally_dominant_systems():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n = int(rng.integers(1, 61))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        a[np.arange(n), np.arange(n)] += np.sign(
            a[np.arange(n), np.arange(n)]) * (n + 1.0)
        b = rng.uniform(-10.0, 10.0, size=n)
        x = lu_solve(a, b)
        assert residual(a, x, b) <= 1e-10 * max(1.0, np.max(np.abs(b)))


def test_matches_scipy_on_random_systems():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        mine = lu_solve(a, b)
        ref = scipy.linalg.solve(a, b)
        assert np.allclose(mine, ref, rtol=1e-9, atol=1e-11)


def test_permutation_soundness():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = lu_solve(a, b)
        perm = rng.permutation(n)
        x_shuffled = lu_solve(a[perm], b[perm])
        assert np.max(np.abs(x - x_shuffled)) <= 1e-10


def test_factorization_reuse():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(12, 12)) + 12 * np.eye(12)
    fact = LUFactorization(a)
    for _ in range(4):
        b = rng.normal(size=12)
        assert residual(a, fact.solve(b), b) <= 1e-10


def test_ill_conditioned_refinement_keeps_residual_small():
    n = 9
    a = scipy.linalg.hilbert(n)
    x_true = np.ones(n)
    b = a @ x_true
    x = lu_solve(a, b)
    assert residual(a, x, b) <= 1e-12


def test_rectangular_rejected():
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        lu_solve(np.eye(3), np.ones(2))


def _stack(seed, count, n, ties, singular):
    """A random (count, n, n) stack; rounded entries tie pivots, and the
    matrices at ``singular`` get a repeated row (exactly rank deficient)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, n, n))
    if ties:
        a = np.round(a * 2.0)
    for i in singular:
        if n == 1:
            a[i] = 0.0
        else:
            a[i, -1] = a[i, 0]
    return a


def _first_failure(a):
    """(index, error) of the first matrix LUFactorization rejects, or None."""
    for i, matrix in enumerate(a):
        try:
            LUFactorization(matrix)
        except SingularMatrixError as exc:
            return i, exc
    return None


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12),
       n=st.integers(1, 7), ties=st.booleans(),
       singular=st.sets(st.integers(0, 11), max_size=3))
def test_stacked_elimination_is_the_single_one_bit_for_bit(seed, count, n,
                                                           ties, singular):
    a = _stack(seed, count, n, ties, sorted(i for i in singular if i < count))
    first = _first_failure(a)
    if first is None:
        lu, perm = lu_factor_stack(a)
        assert lu.shape == (count, n, n) and perm.shape == (count, n)
        for i, matrix in enumerate(a):
            fact = LUFactorization(matrix)
            assert np.array_equal(lu[i], fact._lu)
            assert np.array_equal(perm[i], fact._perm)
        return
    # the first failing matrix in stack order is named, with its step,
    # pivot and threshold, as the single elimination names them
    index, single = first
    with pytest.raises(SingularMatrixError) as exc:
        lu_factor_stack(a)
    assert exc.value.index == index
    assert exc.value.step == single.step
    assert str(exc.value) == str(single)


def test_stacked_elimination_names_the_first_singular_matrix():
    # the elimination meets matrix 3's zero column at step 1, before matrix
    # 1's zero row at step 3, and still names matrix 1, the first in the
    # stack, with the step at which it fails alone
    a = np.stack([np.eye(3)] * 5)
    a[1] = [[0.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]
    a[3] = [[0.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(SingularMatrixError) as exc:
        lu_factor_stack(a)
    assert (exc.value.index, exc.value.step) == (1, 3)
    assert (exc.value.pivot, exc.value.threshold) == (0.0, 2e-13)
    with pytest.raises(SingularMatrixError) as exc:
        lu_factor_stack(a[2:])
    assert (exc.value.index, exc.value.step) == (1, 1)


def test_stacked_elimination_breaks_pivot_ties_like_the_single_one():
    # equal magnitudes in the pivot column: the first row wins
    a = np.array([[[1.0, 2.0], [-1.0, 5.0]], [[0.0, 1.0], [3.0, 1.0]]])
    lu, perm = lu_factor_stack(a)
    assert perm.tolist() == [[0, 1], [1, 0]]
    for i in range(2):
        assert np.array_equal(lu[i], LUFactorization(a[i])._lu)


def test_stacked_elimination_rejects_bad_stacks():
    with pytest.raises(ValueError):
        lu_factor_stack(np.ones((2, 2, 3)))
    with pytest.raises(ValueError):
        lu_factor_stack(np.eye(2))
    with pytest.raises(ValueError):
        lu_factor_stack(np.array([[[1.0, np.inf], [0.0, 1.0]]]))
    lu, perm = lu_factor_stack(np.zeros((0, 2, 2)))
    assert lu.shape == (0, 2, 2) and perm.shape == (0, 2)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 12),
       n=st.integers(1, 7), ties=st.booleans())
def test_stacked_inverse_solves_every_unit_column(seed, count, n, ties):
    a = _stack(seed, count, n, ties, [])
    if _first_failure(a) is not None:
        return
    lu, perm = lu_factor_stack(a)
    inverse = lu_inverse_stack(lu, perm)
    assert inverse.shape == (count, n, n)
    for i in range(count):
        # column c is the substitution of the unit column e_c
        columns = np.array([lu_substitute(lu[i], perm[i], e)
                            for e in np.eye(n)]).T
        scale = np.abs(columns).max()
        assert np.max(np.abs(inverse[i] - columns)) <= 1e-13 * scale
        assert np.max(np.abs(inverse[i] @ a[i] - np.eye(n))) <= \
            1e-12 * scale * np.abs(a[i]).max() * n


def _factors_like_the_reference(matrix):
    """LUFactorization of ``matrix`` holds the bytes of
    :func:`helpers.lu_factor_reference`'s factors and permutation, or
    fails at the same step, pivot and threshold."""
    try:
        lu, perm = lu_factor_reference(matrix)
    except SingularMatrixError as reference:
        with pytest.raises(SingularMatrixError) as exc:
            LUFactorization(matrix)
        got = exc.value
        assert (got.step, got.threshold, got.index) == (
            reference.step, reference.threshold, None)
        assert np.float64(got.pivot).tobytes() == \
            np.float64(reference.pivot).tobytes()
        assert str(got) == str(reference)
        return False
    fact = LUFactorization(matrix)
    assert fact._lu.tobytes() == lu.tobytes()
    assert fact._perm.tobytes() == perm.tobytes()
    return True


@settings(max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
       ties=st.booleans(), singular=st.booleans())
def test_elimination_is_the_reference_column_loop_bit_for_bit(seed, n, ties,
                                                              singular):
    # rounded entries tie pivots (or zero a column); a repeated row fails
    # a later step
    [matrix] = _stack(seed, 1, n, ties, [0] if singular else [])
    factored = _factors_like_the_reference(matrix)
    assert not (singular and factored)


def test_elimination_is_the_reference_on_the_solvers_matrices(monkeypatch):
    # every matrix of the collocation degree tables m = 2..12: model02's
    # fail their pivot test at m = 11 and 12, with the same step, pivot
    # and threshold
    matrices = []

    def recording(matrix):
        matrices.append(np.array(matrix))
        return LUFactorization(matrix)

    monkeypatch.setattr(collocation, "LUFactorization", recording)
    for name in ("model02", "nonlinear-sys2"):
        lin = linearize(builtin(name))
        for degree in range(2, 13):
            try:
                CollocationDiscretization(lin, degree)
            except SolverError:
                assert name == "model02" and degree > 10
    assert len(matrices) == 22
    factored = [_factors_like_the_reference(m) for m in matrices]
    assert factored == [True] * 9 + [False] * 2 + [True] * 11


def test_elimination_fails_a_singular_step_as_the_reference():
    # zero first column (step 1), a repeated row (a later step), a
    # pivot just under the threshold, and the zero matrix
    tiny = np.eye(3)
    tiny[2, 2] = 1e-13 * 0.999
    for matrix in (np.array([[0.0, 1.0], [0.0, 2.0]]),
                   np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                             [1.0, 2.0, 3.0]]), tiny, np.zeros((2, 2))):
        assert not _factors_like_the_reference(matrix)


def _solves_like_the_reference(matrix, rhs):
    """Every right-hand side of ``rhs`` solves to the bits of
    :func:`helpers.lu_substitute` on the same factors."""
    fact = LUFactorization(matrix)
    for b in rhs:
        assert np.array_equal(fact.solve(b),
                              lu_substitute(fact._lu, fact._perm, b))


def test_solve_is_the_row_substitution_bit_for_bit():
    # entries and right-hand sides spread over 1e-5 .. 1e5, so that every
    # dot product rounds
    rng = np.random.default_rng(24)
    for n in range(1, 37):
        a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-5, 5, (n, n))
        a += np.diag(np.abs(a).sum(axis=1))
        rhs = rng.normal(size=(20, n)) * 10.0 ** rng.uniform(-5, 5, (20, n))
        _solves_like_the_reference(a, rhs)


@pytest.mark.parametrize("name, degrees", [("nonlinear-sys2", range(2, 13)),
                                           ("model02", range(2, 11))])
def test_solve_is_the_row_substitution_on_the_solvers_matrices(name,
                                                               degrees):
    system = builtin(name)
    lin = linearize(system)
    rng = np.random.default_rng(7)
    matrices = [lin.start_value_matrix()] + [
        CollocationDiscretization(lin, degree).matrix for degree in degrees]
    for matrix in matrices:
        n = matrix.shape[0]
        _solves_like_the_reference(matrix, rng.normal(size=(20, n)))
