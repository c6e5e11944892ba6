"""Tests for the discrete fractional-calculus kernel."""

import math
import warnings

import numpy as np
import pytest

from fracml.fractional import (
    FractionalOrderError,
    binomial_phi,
    caputo_difference,
    fractional_sum,
    kernel_weights,
    memory_convolution,
    validate_order,
)

# Gamma-ratio oracle values, mpmath dps=50: w[n] = G(n+a) / (G(a) G(n+1)).
WEIGHT_ORACLE = [
    (0.37, 500, 0.008292672033730792092449),
    (0.85, 100000, 0.1598475750544711022967),
    (0.5, 3, 0.3125),
    (0.999, 7, 0.9974097470700316821484),
    (0.05, 12, 0.004836595105622773275375),
]


def test_validate_order_accepts_unit_interval():
    for a in (1e-12, 0.3, 0.5, 0.9999, 1.0):
        assert validate_order(a) == a


def test_validate_order_rejects_out_of_range():
    for bad in (0.0, -0.3, 1.0000001, 2.0, float("nan"), float("inf")):
        with pytest.raises(FractionalOrderError):
            validate_order(bad)


def test_kernel_weights_small_cases():
    w = kernel_weights(0.7, 4)
    # hand recurrence: 1, 0.7, 0.7*1.7/2, 0.595*2.7/3
    assert w[0] == 1.0
    assert w[1] == 0.7
    assert math.isclose(w[2], 0.595, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(w[3], 0.5355, rel_tol=0, abs_tol=1e-15)


def test_kernel_weights_alpha_one_is_all_ones():
    w = kernel_weights(1.0, 50)
    assert np.array_equal(w, np.ones(50))


@pytest.mark.parametrize("alpha,n,expected", WEIGHT_ORACLE)
def test_kernel_weights_match_gamma_ratio_oracle(alpha, n, expected):
    w = kernel_weights(alpha, n + 1)
    assert w[n] == pytest.approx(expected, rel=1e-13)


def test_kernel_weights_recurrence_property():
    rng = np.random.default_rng(7)
    for alpha in rng.uniform(0.01, 1.0, size=5):
        w = kernel_weights(alpha, 10_000)
        n = np.arange(9_999)
        lhs = w[1:] * (n + 1.0)
        rhs = w[:-1] * (n + alpha)
        assert np.allclose(lhs, rhs, rtol=1e-14, atol=0)


def test_kernel_weights_long_tail_is_finite_and_monotone():
    # naive Gamma ratios overflow near n ~ 170; the recurrence must not
    w = kernel_weights(0.6, 1_000_000)
    assert np.all(np.isfinite(w))
    assert np.all(w > 0)
    assert np.all(np.diff(w[1:]) <= 0)


def test_kernel_weights_is_read_only():
    kw = kernel_weights(0.5, 8)
    assert len(kw) == 8
    assert kw[0] == 1.0
    with pytest.raises(ValueError):
        kw[0] = 2.0


def test_binomial_phi_matches_weight_shift():
    # phi(n) is the weight at index n-1
    for alpha in (0.25, 0.7, 1.0):
        w = kernel_weights(alpha, 12)
        for n in range(1, 12):
            assert binomial_phi(alpha, n) == w[n - 1]


def test_binomial_phi_examples():
    assert binomial_phi(0.7, 4) == pytest.approx(0.5355, abs=1e-15)
    assert binomial_phi(0.3, 1) == 1.0


def test_binomial_phi_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        binomial_phi(0.5, 0)


def test_fractional_sum_worked_example():
    # w(0.3) = [1, 0.3, 0.195]; 0.195*0.2 - 0.3*0.1 + 0.4 = 0.409
    xs = np.array([0.2, -0.1, 0.4])
    assert fractional_sum(0.3, xs, 2) == pytest.approx(0.409, abs=1e-15)


def test_fractional_sum_order_one_is_plain_partial_sum():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=40)
    for k in (0, 7, 39):
        assert fractional_sum(1.0, xs, k) == pytest.approx(xs[: k + 1].sum(), rel=1e-13)


def test_fractional_sum_index_bounds():
    xs = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        fractional_sum(0.5, xs, 2)
    with pytest.raises(ValueError):
        fractional_sum(0.5, xs, -1)


def test_caputo_difference_worked_example():
    xs = np.array([1.0, 0.5, 0.25, 0.125])
    assert caputo_difference(0.4, xs, 2) == pytest.approx(-0.515, abs=1e-15)


def test_caputo_difference_rejects_order_one():
    with pytest.raises(FractionalOrderError):
        caputo_difference(1.0, np.array([1.0, 2.0, 3.0]), 1)


def test_caputo_difference_needs_one_step_ahead():
    xs = np.array([1.0, 2.0, 3.0])
    caputo_difference(0.5, xs, 1)  # uses xs[2], fine
    with pytest.raises(ValueError):
        caputo_difference(0.5, xs, 2)


def test_caputo_inverts_fractional_sum_solution():
    # Solution route: x(t+1) = x0 + sum_{j<=t} w[t-j] g(x(j)) with g(x) = (lam-1) x.
    # Operator route: the Caputo difference of that solution must return g(x(n)).
    alpha, lam, x0 = 0.6, 0.3, 0.8
    steps = 200
    w = kernel_weights(alpha, steps + 1)
    xs = np.empty(steps + 1)
    xs[0] = x0
    g = np.empty(steps + 1)
    for t in range(steps):
        g[t] = (lam - 1.0) * xs[t]
        xs[t + 1] = x0 + memory_convolution(w, g, t)
    for n in (0, 1, 5, 50, 150, 199):
        lhs = caputo_difference(alpha, xs, n)
        assert lhs == pytest.approx((lam - 1.0) * xs[n], rel=1e-12, abs=1e-12)


def test_memory_convolution_matches_fractional_sum():
    rng = np.random.default_rng(11)
    hist = rng.normal(size=64)
    w = kernel_weights(0.45, 64)
    for t in (0, 1, 30, 63):
        assert memory_convolution(w, hist, t) == pytest.approx(
            fractional_sum(0.45, hist, t), rel=1e-13, abs=1e-15
        )


def test_memory_convolution_validates_lengths():
    w = kernel_weights(0.5, 4)
    hist = np.zeros(10)
    with pytest.raises(ValueError):
        memory_convolution(w, hist, 5)  # weights too short
    with pytest.raises(ValueError):
        memory_convolution(w, np.zeros(2), 3)  # history too short


def test_memory_convolution_keeps_complex_and_integer_histories():
    w = kernel_weights(0.45, 8)
    rng = np.random.default_rng(12)
    re, im = rng.normal(size=(2, 8, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning: nothing is dropped
        got = memory_convolution(w, re + 1j * im, 7)
    assert np.iscomplexobj(got)
    assert np.allclose(got.real, memory_convolution(w, re, 7), rtol=1e-14, atol=1e-15)
    assert np.allclose(got.imag, memory_convolution(w, im, 7), rtol=1e-14, atol=1e-15)
    ints = np.arange(24).reshape(8, 3)
    assert np.array_equal(memory_convolution(w, ints, 5), memory_convolution(w, ints.astype(float), 5))
    assert memory_convolution(w, [1, 2, 3], 2) == pytest.approx(w[2] + 2 * w[1] + 3 * w[0])
