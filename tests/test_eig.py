"""Tests for the dense nonsymmetric eigenvalue solver.

numpy.linalg.eigvals serves as the independent oracle; the solver under
test shares no code with it.
"""

import numpy as np
import pytest

from conftest import multiset_distance
from fracml.eig import MAX_DENSE_N, EigenvalueConvergenceError, eigvals, hessenberg


def test_empty_and_scalar():
    assert eigvals(np.zeros((0, 0))).shape == (0,)
    assert eigvals(np.array([[3.5]]))[0] == 3.5


def test_diagonal_matrix_is_exact():
    d = np.array([2.0, -1.0, 0.5, 7.0])
    vals = eigvals(np.diag(d))
    assert multiset_distance(vals, d.astype(complex)) == 0.0


def test_rotation_gives_exact_conjugate_pair():
    vals = eigvals(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    vals = vals[np.argsort(vals.imag)]
    assert vals[0] == -1j and vals[1] == 1j


def test_two_by_two_real_roots():
    # eigenvalues 3 and 1
    vals = np.sort(eigvals(np.array([[2.0, 1.0], [1.0, 2.0]])).real)
    assert np.allclose(vals, [1.0, 3.0], atol=1e-14)


def test_triangular_matrix():
    a = np.triu(np.arange(1.0, 26.0).reshape(5, 5))
    assert multiset_distance(eigvals(a), np.diag(a).astype(complex)) < 1e-10


def test_hessenberg_structure_and_similarity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(12, 12))
    h = hessenberg(a)
    assert np.all(np.tril(h, -2) == 0.0)
    assert np.trace(h) == pytest.approx(np.trace(a), rel=1e-12)
    assert multiset_distance(np.linalg.eigvals(h), np.linalg.eigvals(a)) < 1e-9


def test_jordan_block_stays_near_defective_eigenvalue():
    # defective eigenvalue, conditioning ~ eps**(1/4); only loose accuracy holds
    a = np.eye(4, k=1)
    vals = eigvals(a)
    assert np.max(np.abs(vals)) < 1e-3
    assert np.sum(vals) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n", [3, 5, 8, 13, 21, 34, 40])
def test_random_matrices_match_numpy(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        a = rng.normal(size=(n, n))
        d = multiset_distance(eigvals(a), np.linalg.eigvals(a))
        assert d < 1e-8 * max(1.0, np.linalg.norm(a))


def test_symmetric_matrices_match_numpy():
    rng = np.random.default_rng(99)
    for n in (4, 9, 16):
        a = rng.normal(size=(n, n))
        a = a + a.T
        assert multiset_distance(eigvals(a), np.linalg.eigvals(a)) < 1e-8


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(15, 15))
        assert np.sum(eigvals(a)) == pytest.approx(np.trace(a), rel=1e-10, abs=1e-10)


def test_conjugate_symmetry_of_real_input():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(9, 9))
    vals = eigvals(a)
    assert multiset_distance(vals, np.conj(vals)) == 0.0


def test_scaling_equivariance():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(7, 7))
    assert multiset_distance(eigvals(4.0 * a), 4.0 * eigvals(a)) < 1e-8


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eigvals(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigvals(np.zeros((MAX_DENSE_N + 1, MAX_DENSE_N + 1)))


def test_iteration_cap_raises():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(20, 20))
    with pytest.raises(EigenvalueConvergenceError):
        eigvals(a, iteration_cap=1)


def test_zero_matrix():
    assert np.array_equal(eigvals(np.zeros((6, 6))), np.zeros(6, dtype=complex))


@pytest.mark.parametrize("scale", [1e-150, 1e-165, 1e-175, 1e-185, 1e-200, 1e150, 1e160])
def test_extreme_scales_match_numpy(scale):
    # squared entries of such matrices leave the float range
    a = np.random.default_rng(6).normal(size=(6, 6)) * scale
    ref = np.linalg.eigvals(a)
    assert multiset_distance(eigvals(a), ref) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [-600, 600])
def test_power_of_two_scaling_is_exact(k):
    a = np.random.default_rng(29).normal(size=(9, 9))
    want = np.ldexp(eigvals(a).view(float), k)
    assert eigvals(2.0**k * a).view(float).tobytes() == want.tobytes()
