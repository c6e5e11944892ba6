"""Closed forms against the general routes they shortcut.

A circulant's closed-form spectrum (a ring, a torus or any axis-aligned
stencil in up to three dimensions) must be the dense solver's spectrum
of its matrix, and a coupling region's verdict must be the verdict on the
ring's spectrum wherever the region's margin is clear of its boundary.
A logistic sweep reads the region of its linearized ring, so its
verdicts are held to the same spectrum verdicts.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import multiset_distance  # noqa: E402
from fracml.dynamics import _sweep_maps, linearize_at, sweep  # noqa: E402
from fracml.spectra import (  # noqa: E402
    Circulant,
    CirculantSpec,
    asymmetric_eigenvalues,
    circulant_eigenvalues,
    dense_eigenvalues,
    symmetric_eigenvalues,
)
from fracml.stability import asymmetric_region, classify_spectrum, symmetric_region  # noqa: E402

# fixed examples, no example database: every run checks the same inputs
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

weights = st.floats(min_value=-1.0, max_value=1.0)
# below alpha of about 0.1 the curve leaves the cusp so close to the real
# axis that a region margin of 1e-6 can be an eigenvalue margin inside
# the marginal band
orders = st.floats(min_value=0.1, max_value=1.0)
CLEAR = 1e-6
# coupling boxes a little larger than the regions, so both verdicts come up


@PROPERTY
@given(weights, weights, weights, st.integers(min_value=1, max_value=16))
def test_closed_form_spectrum_is_the_dense_spectrum(a0, a1, a2, n):
    spec = CirculantSpec(a0, a1, a2, n)
    assert multiset_distance(circulant_eigenvalues(spec), dense_eigenvalues(spec.matrix())) < 1e-8


@st.composite
def circulants(draw):
    """Axis-aligned stencils in 1-3 dimensions on at most 64 sites, offsets up to +-3."""
    d = draw(st.integers(min_value=1, max_value=3))
    shape = tuple(draw(st.integers(min_value=1, max_value=(64, 8, 4)[d - 1])) for _ in range(d))
    stencil = {}
    for axis, k, c in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(-3, 3), weights), max_size=6)):
        stencil[tuple(k if a == axis else 0 for a in range(d))] = c
    return Circulant(shape, stencil)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(circulants())
def test_closed_form_spectrum_of_any_stencil_is_the_dense_spectrum(spec):
    assert multiset_distance(circulant_eigenvalues(spec), dense_eigenvalues(spec.matrix())) < 1e-8


@PROPERTY
@given(orders, st.floats(min_value=-0.5, max_value=0.5), st.floats(min_value=-1.1, max_value=1.1),
       st.integers(min_value=2, max_value=16))
def test_symmetric_region_verdict_is_the_spectrum_verdict(alpha, a2, a1, n):
    region = symmetric_region(alpha, n)
    assume(abs(region.signed_margin(a2, a1)) > CLEAR)
    spectrum = symmetric_eigenvalues(a1, a2, n)
    assert region.classify(a2, a1).status == classify_spectrum(spectrum, alpha).status


@PROPERTY
@given(orders, st.floats(min_value=-1.1, max_value=1.1), st.floats(min_value=-0.8, max_value=0.8),
       st.integers(min_value=1, max_value=16))
def test_asymmetric_region_verdict_is_the_spectrum_verdict(alpha, a1, a2, n):
    region = asymmetric_region(alpha, n)
    assume(abs(region.signed_margin(a1, a2)) > CLEAR)
    spectrum = asymmetric_eigenvalues(a1, a2, n)
    assert region.classify(a1, a2).status == classify_spectrum(spectrum, alpha).status



@PROPERTY
@given(st.sampled_from(["logistic-cubic", "logistic-circle"]), st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=-1.1, max_value=1.1), st.floats(min_value=-1.8, max_value=0.6),
       st.integers(min_value=1, max_value=16))
def test_logistic_sweep_verdict_is_the_spectrum_verdict_of_its_linearized_ring(mode, alpha, mu, delta, n):
    assume(n > 1 or mode == "logistic-circle")  # a single site has no symmetric region
    (cell,) = sweep(mode, alpha, n, [mu], [delta])
    ring = CirculantSpec(*linearize_at(*_sweep_maps(mode, mu, delta), 0.0), n)
    verdict = classify_spectrum(circulant_eigenvalues(ring), alpha)
    assume(min(abs(cell.margin), abs(verdict.margin)) >= 5e-7)
    assert cell.analytic == verdict.status
