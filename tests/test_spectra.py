"""Tests for closed-form ring spectra and the dense cross-check."""

import math

import numpy as np
import pytest

from conftest import multiset_distance
from fracml import spectra
from fracml.spectra import (
    BlockCirculantSpec,
    Circulant,
    CirculantSpec,
    Spectrum,
    asymmetric_eigenvalues,
    block_circulant_eigenvalues,
    circulant_eigenvalues,
    dense_eigenvalues,
    mode_cosine,
    mode_sine,
    symmetric_eigenvalues,
)


def test_mode_trig_exact_values():
    assert mode_cosine(0, 5) == 1.0
    assert mode_sine(0, 5) == 0.0
    assert mode_cosine(2, 4) == -1.0  # half turn
    assert mode_sine(2, 4) == 0.0
    assert mode_cosine(1, 4) == 0.0  # quarter turn
    assert mode_sine(1, 4) == 1.0
    assert mode_cosine(3, 4) == 0.0  # three-quarter turn
    assert mode_sine(3, 4) == -1.0
    assert mode_cosine(7, 4) == mode_cosine(3, 4)  # periodic in j


def test_mode_table_refuses_an_axis_above_the_site_cap(monkeypatch):
    # the uncached builder, so no table kept from another test answers instead
    monkeypatch.setattr(spectra, "SITE_CAP", 12)
    assert spectra._trig_table.__wrapped__(12).shape == (12, 2)
    with pytest.raises(ValueError, match="exceed the cap of 12"):
        spectra._trig_table.__wrapped__(13)


def test_closed_form_refuses_an_axis_above_the_site_cap_before_any_mode(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mode values computed before the site cap")

    monkeypatch.setattr(spectra, "mode_cosine", refuse)
    big = spectra.SITE_CAP + 1
    for spec in (CirculantSpec(0.1, 0.2, 0.3, big), BlockCirculantSpec(0.1, 0.2, 0.3, 3, big)):
        with pytest.raises(ValueError, match=f"{big} sites along one axis exceed the cap"):
            circulant_eigenvalues(spec)


def test_circulant_matrix_small_sizes():
    tol = dict(rtol=0.0, atol=1e-15)
    assert np.allclose(CirculantSpec(0.2, -0.5, 0.1, 1).matrix(), [[-0.2]], **tol)
    m2 = CirculantSpec(0.2, -0.5, 0.1, 2).matrix()
    # left and right neighbor coincide for n = 2
    assert np.allclose(m2, [[-0.5, 0.3], [0.3, -0.5]], **tol)
    m4 = CirculantSpec(0.2, -0.5, 0.1, 4).matrix()
    assert np.allclose(
        m4,
        [
            [-0.5, 0.1, 0.0, 0.2],
            [0.2, -0.5, 0.1, 0.0],
            [0.0, 0.2, -0.5, 0.1],
            [0.1, 0.0, 0.2, -0.5],
        ],
        **tol,
    )


def test_circulant_rejects_bad_size():
    with pytest.raises(ValueError):
        CirculantSpec(0.0, 0.0, 0.0, 0)
    with pytest.raises(ValueError):
        CirculantSpec(0.0, 0.0, 0.0, -3)


def test_printed_eigenvalues_first_ring():
    spec = circulant_eigenvalues(CirculantSpec(0.2, -0.5, 0.1, 3))
    got = spec.canonical()
    want = np.array([-0.65 - 0.0866025j, -0.65 + 0.0866025j, -0.2 + 0.0j])
    assert np.max(np.abs(got - want)) < 1e-6


def test_printed_eigenvalues_second_ring():
    spec = circulant_eigenvalues(CirculantSpec(0.2, -0.3, 0.1, 3))
    got = spec.canonical()
    want = np.array([-0.45 - 0.0866j, -0.45 + 0.0866j, 0.0 + 0.0j])
    # 0.0866 is a four-decimal print of 0.1 sin(2 pi / 3) = 0.08660254
    assert np.max(np.abs(got.real - want.real)) < 1e-6
    assert np.max(np.abs(got.imag - want.imag)) < 5e-5


def test_circulant_row_sum_mode():
    # mode 0 is always the plain row sum
    spec = circulant_eigenvalues(CirculantSpec(0.7, -1.3, 0.4, 9))
    assert spec.eigenvalues[0].imag == 0.0
    assert spec.eigenvalues[0].real == pytest.approx(0.7 - 1.3 + 0.4, abs=1e-15)


def test_circulant_conjugate_closure_is_exact():
    spec = circulant_eigenvalues(CirculantSpec(0.37, -0.11, 0.82, 11))
    vals = spec.eigenvalues
    for l in range(1, 11):
        assert vals[11 - l] == np.conj(vals[l])


def test_circulant_matches_dense_and_numpy():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4, 5, 8, 13):
        a0, a1, a2 = rng.normal(size=3)
        spec = CirculantSpec(a0, a1, a2, n)
        closed = circulant_eigenvalues(spec)
        assert multiset_distance(closed, dense_eigenvalues(spec.matrix())) < 1e-9
        assert multiset_distance(closed, np.linalg.eigvals(spec.matrix())) < 1e-9


def test_symmetric_spectrum_is_real_and_exact_for_n4():
    spec = symmetric_eigenvalues(-0.4, 0.3, 4)
    # cosines are exactly 1, 0, -1, 0
    want = np.array([-0.4 + 0.6, -0.4, -0.4 - 0.6, -0.4], dtype=complex)
    assert np.array_equal(spec.canonical(), np.sort_complex(want))
    assert np.all(spec.eigenvalues.imag == 0.0)


def test_symmetric_agrees_with_general_circulant():
    spec = symmetric_eigenvalues(0.15, -0.35, 7)
    general = circulant_eigenvalues(CirculantSpec(-0.35, 0.15, -0.35, 7))
    assert multiset_distance(spec, general) < 1e-15


def test_asymmetric_n2_is_real():
    # for n = 2 both sine factors vanish exactly
    spec = asymmetric_eigenvalues(0.3, 5.0, 2)
    assert np.array_equal(spec.eigenvalues, np.array([0.3, 0.3], dtype=complex))


def test_asymmetric_quarter_mode_is_exact():
    spec = asymmetric_eigenvalues(0.1, -0.25, 8)
    assert spec.eigenvalues[2] == complex(0.1, -0.5)  # sine exactly 1 at j = n/4


def test_asymmetric_frozen_n6():
    spec = asymmetric_eigenvalues(0.0, 0.2, 6)
    want = 0.2 * math.sqrt(3.0)  # 2 a2 sin(pi/3)
    assert spec.eigenvalues[1].imag == pytest.approx(want, rel=1e-15)
    assert spec.eigenvalues[5] == np.conj(spec.eigenvalues[1])


def test_asymmetric_matches_dense():
    rng = np.random.default_rng(21)
    for n in (3, 4, 6, 9):
        a1, a2 = rng.normal(size=2)
        spec = asymmetric_eigenvalues(a1, a2, n)
        matrix = CirculantSpec(-a2, a1, a2, n).matrix()
        assert multiset_distance(spec, dense_eigenvalues(matrix)) < 1e-9


def test_block_trivial_sizes():
    # 1 x 1 torus: single entry a1 + 2 a0 + 2 a2
    spec = block_circulant_eigenvalues(BlockCirculantSpec(0.2, -0.5, 0.1, 1, 1))
    assert spec.eigenvalues[0] == complex(-0.5 + 0.4 + 0.2)


def test_block_two_by_two_sign_combinations():
    spec = block_circulant_eigenvalues(BlockCirculantSpec(0.3, -0.1, 0.7, 2, 2))
    want = np.array(
        [-0.1 + s1 * 0.6 + s2 * 1.4 for s1 in (1, -1) for s2 in (1, -1)],
        dtype=complex,
    )
    assert multiset_distance(spec, want) < 1e-15


def test_block_matches_dense_assembly():
    spec = BlockCirculantSpec(0.12, -0.4, -0.07, 3, 4)
    closed = block_circulant_eigenvalues(spec)
    assert len(closed) == 12
    assert multiset_distance(closed, dense_eigenvalues(spec.matrix())) < 1e-9
    assert multiset_distance(closed, np.linalg.eigvals(spec.matrix())) < 1e-9


def test_block_matrix_row_sums():
    spec = BlockCirculantSpec(0.12, -0.4, -0.07, 3, 4)
    rows = spec.matrix().sum(axis=1)
    assert np.allclose(rows, -0.4 + 2 * 0.12 + 2 * -0.07, atol=1e-15)


def _mirror_modes(shape):
    """Flat index of mode -l for each mode l of a lattice, C order."""
    return np.ravel_multi_index([(-i) % n for i, n in zip(np.indices(shape), shape)], shape).ravel()


def test_closed_form_pairs_are_exact_conjugates():
    # mode -l holds exactly the conjugate of mode l; a self-paired mode is real
    rng = np.random.default_rng(17)
    for _ in range(200):
        ring = CirculantSpec(*rng.uniform(-1.0, 1.0, 3), int(rng.integers(1, 65)))
        torus = BlockCirculantSpec(*rng.uniform(-1.0, 1.0, 3), *rng.integers(1, 33, 2))
        for spec in (ring, torus):
            vals = circulant_eigenvalues(spec).eigenvalues
            mirror = _mirror_modes(spec.shape)
            paired = mirror != np.arange(len(vals))
            assert np.array_equal(vals[mirror], vals.conj())
            assert (vals[~paired].imag == 0.0).all()


def test_circulant_stencil_rules():
    spec = Circulant((4,), {0: 0.5, -1: 0.25})
    assert spec.shape == (4,) and dict(spec.stencil) == {(0,): 0.5, (-1,): 0.25}
    assert dict(CirculantSpec(0.25, 0.5, 0.0, 4).stencil) == {(0,): 0.5, (-1,): 0.25, (1,): 0.0}
    with pytest.raises(ValueError, match="at most one non-zero"):
        Circulant((3, 3), {(1, 1): 0.5})  # a diagonal offset
    with pytest.raises(ValueError, match="components"):
        Circulant((3, 3), {1: 0.5})
    with pytest.raises(ValueError):
        Circulant((3, 0), {})
    # wrapped offsets add, so the closed form and the matrix agree on tiny sides
    wrapped = Circulant((2, 1), {(0, 0): 0.1, (1, 0): 0.2, (-1, 0): 0.3, (3, 0): 0.4, (0, 2): 0.5})
    assert np.array_equal(wrapped.matrix(), [[0.6, 0.9], [0.9, 0.6]])
    assert multiset_distance(circulant_eigenvalues(wrapped), [1.5, -0.3]) < 1e-15


def test_spectrum_trace_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a0, a1, a2 = rng.normal(size=3)
        n = int(rng.integers(1, 30))
        spec = circulant_eigenvalues(CirculantSpec(a0, a1, a2, n))
        assert np.sum(spec.eigenvalues) == pytest.approx(n * a1, rel=1e-10, abs=1e-10)


def test_spectrum_source_tags_and_immutability():
    spec = circulant_eigenvalues(CirculantSpec(0.1, 0.2, 0.3, 4))
    assert spec.source == "analytic-circulant"
    assert dense_eigenvalues(np.eye(2)).source == "numeric-dense"
    assert block_circulant_eigenvalues(BlockCirculantSpec(0, 0, 0, 2, 2)).source == "analytic-block"
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 0.0


def test_canonical_ordering():
    spec = Spectrum(np.array([1 + 1j, -1 + 0j, 1 - 1j, 0 + 0j]), "numeric-dense")
    got = spec.canonical()
    assert np.array_equal(got, np.array([-1 + 0j, 0 + 0j, 1 - 1j, 1 + 1j]))


def test_multiset_distance_basics():
    a = np.array([1 + 0j, 2 + 0j])
    assert multiset_distance(a, a[::-1]) == 0.0
    assert multiset_distance(a, np.array([1 + 0j, 2.5 + 0j])) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        multiset_distance(a, np.array([1 + 0j]))
