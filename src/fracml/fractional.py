"""Discrete fractional calculus on the uniform unit-step grid.

Power-law memory weights, fractional sums, Caputo-type differences of
order 0 < alpha < 1, and the history convolution that drives the lattice
simulators.  All arithmetic is plain binary64; the weight table is a
read-only array built by a multiplicative recurrence because ratios of
Gamma values overflow near n = 170 in double precision.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FractionalOrderError",
    "validate_order",
    "kernel_weights",
    "binomial_phi",
    "fractional_sum",
    "caputo_difference",
    "memory_convolution",
]


class FractionalOrderError(ValueError):
    """Raised for orders outside the supported interval (0, 1]."""


def validate_order(alpha: float) -> float:
    """Return ``alpha`` as a float after checking 0 < alpha <= 1."""
    a = float(alpha)
    if not 0.0 < a <= 1.0:  # also rejects NaN
        raise FractionalOrderError(f"order must lie in (0, 1], got {alpha!r}")
    return a


def kernel_weights(alpha: float, length: int) -> np.ndarray:
    """Build the weight table w[0..length-1] for order ``alpha``.

    ``w[n] = Gamma(n + alpha) / (Gamma(alpha) * Gamma(n + 1))``, computed
    as w[0] = 1 and w[n+1] = w[n] * (n + alpha) / (n + 1).  Every
    factor is positive and at most 1 for alpha <= 1, so the cumulative
    product neither overflows nor loses positivity at any length.

    Parameters
    ----------
    alpha : float
        Order in (0, 1].
    length : int
        Number of weights, at least 1.

    Returns
    -------
    numpy.ndarray
        Read-only: a run transforms blocks of it once and reuses them
        (``dynamics._add_far``), so no caller may change it mid-run.
    """
    a = validate_order(alpha)
    n = int(length)
    if n < 1:
        raise ValueError(f"length must be >= 1, got {length!r}")
    w = np.empty(n)
    w[0] = 1.0
    if n > 1:
        k = np.arange(n - 1, dtype=float)
        np.cumprod((k + a) / (k + 1.0), out=w[1:])
    w.flags.writeable = False
    return w


def binomial_phi(alpha: float, n: int) -> float:
    """Power-law kernel value Gamma(n + alpha - 1) / (Gamma(alpha) Gamma(n)).

    Defined for n >= 1; n = 0 sits on a Gamma pole.  Identical by
    construction to the shifted weight table: binomial_phi(alpha, n)
    equals kernel_weights(alpha, n)[n - 1].
    """
    k = int(n)
    if k < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return float(kernel_weights(alpha, k)[k - 1])


def fractional_sum(alpha: float, x, n: int) -> float:
    """Fractional sum of order ``alpha`` of the signal ``x`` at index ``n``.

    Returns sum_{s=0}^{n} w[n-s] * x[s] with the weights of order alpha.

    Parameters
    ----------
    alpha : float
        Order in (0, 1].
    x : sequence of float
        Signal samples x[0], x[1], ...
    n : int
        Evaluation index; requires n < len(x).
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim != 1 or len(xs) == 0:
        raise ValueError("signal must be a non-empty vector")
    return float(memory_convolution(kernel_weights(alpha, len(xs)), xs, n))


def caputo_difference(alpha: float, x, n: int) -> float:
    """Caputo-type difference of order ``alpha`` in (0, 1) at index ``n``.

    Composes the first forward difference with a fractional sum of order
    1 - alpha, so index n needs x[n + 1].  Order exactly 1 is rejected
    here: that case is the plain forward difference and needs no memory
    kernel.
    """
    a = validate_order(alpha)
    if a == 1.0:
        raise FractionalOrderError(
            "order 1 is the plain forward difference; this operator needs alpha < 1"
        )
    return fractional_sum(1.0 - a, np.diff(np.asarray(x, dtype=float)), n)


def memory_convolution(weights: np.ndarray, history, t: int) -> np.ndarray:
    """Weighted history sum sum_{j=0}^{t} w[t-j] * X_j.

    ``weights`` is a table from ``kernel_weights``.  ``history`` holds
    the state vectors X_0 .. X_t (rows), or the samples of one signal,
    real or complex.  Cost is O((t+1) * N) per call.  The step loop
    calls it for the recent steps of a block, and a linear ring run to
    build its block resolvent; both add older history by FFT products.
    Over the whole history it is their test oracle, and it is the sum
    behind ``fractional_sum``.
    """
    h = np.asarray(history)
    if not np.iscomplexobj(h):
        h = h.astype(float, copy=False)
    k = int(t)
    if k < 0 or k >= len(h):
        raise ValueError(f"time {t!r} out of range for history of length {len(h)}")
    if len(weights) < k + 1:
        raise ValueError(f"need {k + 1} weights, only {len(weights)} precomputed")
    return weights[k::-1] @ h[: k + 1]
