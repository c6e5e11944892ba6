"""Single implementations against the separate copies they replaced.

Ring spectra come from the one circulant formula, negation is scaling
by -1.0, quadrilateral membership is the sign of its margin, and the
large-lattice symmetric region reuses the even-ring vertices.  Each
reference below is the body that used to implement the same decision on
its own; random inputs from hypothesis must give the same values.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fracml.dynamics import (  # noqa: E402
    MapSpec,
    circle_map,
    cubic_map,
    eval_map,
    eval_map_derivative,
    linear_map,
    logistic_map,
    negated_map,
    scaled_map,
)
from fracml.spectra import (  # noqa: E402
    asymmetric_eigenvalues,
    mode_cosine,
    mode_sine,
    symmetric_eigenvalues,
)
from fracml.stability import symmetric_region, thermodynamic_region  # noqa: E402

# fixed examples, no example database: every run checks the same inputs
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

couplings = st.floats(allow_nan=False, allow_infinity=False)
sizes = st.integers(min_value=1, max_value=64)
orders = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
anything = st.floats()


# --- reference bodies ---------------------------------------------------

def reference_symmetric(a1, a2, n):
    vals = np.empty(n, dtype=complex)
    for j in range(n // 2 + 1):
        v = complex(float(a1) + 2.0 * float(a2) * mode_cosine(j, n))
        vals[j] = v
        if 0 < j < n - j:
            vals[n - j] = v
    return vals


def reference_asymmetric(a1, a2, n):
    vals = np.empty(n, dtype=complex)
    for j in range(n // 2 + 1):
        v = complex(float(a1), 2.0 * float(a2) * mode_sine(j, n))
        vals[j] = v
        if 0 < j < n - j:
            vals[n - j] = v.conjugate()
    return vals


def reference_negated(base, x):
    return -eval_map(base, x)


def reference_negated_derivative(base, x):
    return -eval_map_derivative(base, x)


def reference_contains(quad, a2, a1):
    lo = 1.0 - 2.0**quad.alpha
    return all(lo < a1 + 2.0 * a2 * c < 1.0 for c in quad._cosines())


def reference_thermodynamic_vertices(a):
    lo = 1.0 - 2.0**a
    w = 2.0 ** (a - 2.0)
    ymid = 1.0 - 2.0 ** (a - 1.0)
    return ((0.0, 1.0), (-w, ymid), (0.0, lo), (w, ymid))


# --- spectra --------------------------------------------------------------

def _equal(a, b):
    # == part by part; NaN parts, from 2 a2 overflowing times a zero
    # sine, must sit in the same places
    return (np.array_equal(a.real, b.real, equal_nan=True)
            and np.array_equal(a.imag, b.imag, equal_nan=True))


def _exact_pairs(vals):
    return _equal(vals[1:][::-1], vals[1:].conjugate())


@PROPERTY
@given(couplings, couplings, sizes)
def test_symmetric_spectrum_is_the_per_mode_loop(a1, a2, n):
    new = symmetric_eigenvalues(a1, a2, n).eigenvalues
    old = reference_symmetric(a1, a2, n)
    assert _equal(new, old)
    assert (new.imag == 0.0).all()  # -0.0 on the mirrored half
    assert _exact_pairs(new)


@PROPERTY
@given(couplings, couplings, sizes)
def test_asymmetric_spectrum_is_the_per_mode_loop(a1, a2, n):
    new = asymmetric_eigenvalues(a1, a2, n).eigenvalues
    old = reference_asymmetric(a1, a2, n)
    assert _equal(new, old)
    assert _exact_pairs(new)
    if math.isfinite(2.0 * a2):  # else inf * 0 is NaN, as in the reference
        real_modes = [l for l in range(n) if (2 * l) % n == 0]
        assert all(new[l].imag == 0.0 for l in real_modes)


# --- maps -----------------------------------------------------------------

params = st.floats(min_value=-10.0, max_value=10.0)
leaf_maps = st.one_of(
    params.map(linear_map), params.map(logistic_map),
    params.map(cubic_map), params.map(circle_map),
)
maps = st.recursive(
    leaf_maps,
    lambda inner: st.one_of(
        st.builds(scaled_map, params, inner), inner.map(negated_map)
    ),
    max_leaves=4,
)
points = st.lists(anything, min_size=1, max_size=8).map(np.array)


def _outcome(fn, base, x):
    try:
        return fn(base, x)
    except OverflowError:  # Python floats overflow in x**3
        return math.nan


def _same_bits(a, b):
    # every non-NaN value bit for bit, and NaN where the reference has NaN;
    # -x flips a NaN's sign bit and -1.0 * x keeps it, and no caller reads it
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(b)
    return (np.isnan(a) == nan).all() and (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all()


@PROPERTY
@given(maps, points)
def test_negated_map_is_bitwise_negation(base, x):
    f = negated_map(base)
    assert f == MapSpec("scaled", -1.0, base)
    with np.errstate(all="ignore"):
        assert _same_bits(eval_map(f, x), reference_negated(base, x))
        assert _same_bits(eval_map_derivative(f, x), reference_negated_derivative(base, x))
        for v in x.tolist():  # Python floats take the same path
            assert _same_bits(_outcome(eval_map, f, v), _outcome(reference_negated, base, v))


def test_negated_kind_is_gone():
    with pytest.raises(ValueError):
        MapSpec("negated", 0.0, linear_map(1.0))


# --- regions --------------------------------------------------------------

@PROPERTY
@given(orders, st.integers(min_value=2, max_value=40), anything, anything)
def test_quadrilateral_contains_is_the_strict_half_planes(alpha, n, a2, a1):
    # 1 - 2^alpha rounds to 0 only below alpha = 1.6e-16; that corner is
    # pinned by test_quadrilateral_contains_subnormal_corner
    assume(1.0 - 2.0**alpha != 0.0)
    quad = symmetric_region(alpha, n)
    assert quad.contains(a2, a1) == reference_contains(quad, a2, a1)
    thermo = thermodynamic_region(alpha, "symmetric")
    assert thermo.contains(a2, a1) == reference_contains(thermo, a2, a1)


def test_quadrilateral_contains_subnormal_corner():
    # 1 - 2^alpha is 0.0 here and a1 = 5e-324 violates no half-plane, but
    # its margin -5e-324 / sqrt(5) rounds to -0.0, so contains says outside
    quad = symmetric_region(1e-17, 4)
    assert reference_contains(quad, 0.0, 5e-324)
    assert quad.signed_margin(0.0, 5e-324) == 0.0
    assert not quad.contains(0.0, 5e-324)
    assert quad.contains(0.0, 1e-300) and reference_contains(quad, 0.0, 1e-300)


@PROPERTY
@given(orders)
def test_thermodynamic_symmetric_vertices_are_the_old_formula(alpha):
    quad = thermodynamic_region(alpha, "symmetric")
    assert quad.vertices == reference_thermodynamic_vertices(alpha)
    assert all(math.copysign(1.0, x) == math.copysign(1.0, y)
               for p, q in zip(quad.vertices, reference_thermodynamic_vertices(alpha))
               for x, y in zip(p, q))
    assert (quad.parity, quad.n) == ("even", None)
