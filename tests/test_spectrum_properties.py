"""Closed forms against the general routes they shortcut.

A ring's closed-form spectrum must be the dense solver's spectrum of
its matrix, and a coupling region's verdict must be the verdict on the
ring's spectrum wherever the region's margin is clear of its boundary.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fracml.spectra import (  # noqa: E402
    CirculantSpec,
    asymmetric_eigenvalues,
    circulant_eigenvalues,
    dense_eigenvalues,
    multiset_distance,
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

