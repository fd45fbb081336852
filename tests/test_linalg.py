import numpy as np
import pytest
import scipy.linalg

from bandvie.errors import SingularMatrixError
from bandvie.linalg import LUFactorization, residual

from helpers import lu_solve


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
