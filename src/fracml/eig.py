"""Dense real nonsymmetric eigenvalue solver.

Householder reduction to upper Hessenberg form followed by the implicit
double-shift QR iteration with deflation, per Golub & Van Loan,
"Matrix Computations" (4th ed.), sections 7.4-7.5.  Deliberately
self-contained: the analytic circulant spectra elsewhere in this package
double as an oracle for this solver in the test suite.

Only eigenvalues are computed, no Schur vectors.  Complex eigenvalues
come out of trailing 2x2 blocks as exact conjugate pairs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["EigenvalueConvergenceError", "MAX_DENSE_N", "SWEEPS_PER_ORDER", "hessenberg", "eigvals"]

# Practical cap: O(n^3) with no blocking; beyond this, use a LAPACK build.
MAX_DENSE_N = 512
SWEEPS_PER_ORDER = 100  # QR sweep budget of an order-n matrix: SWEEPS_PER_ORDER * n

_EPS = np.finfo(float).eps
_TOL = 1e-9  # relative deflation threshold; error about _TOL * norm(a) if well-conditioned


class EigenvalueConvergenceError(RuntimeError):
    """QR iteration failed to deflate within the iteration budget."""


def _check_square(a: np.ndarray) -> np.ndarray:
    m = np.array(a, dtype=float, copy=True)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] > MAX_DENSE_N:
        raise ValueError(f"dense solver capped at n = {MAX_DENSE_N}, got {m.shape[0]}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def hessenberg(a) -> np.ndarray:
    """Return an upper Hessenberg matrix orthogonally similar to ``a``."""
    h = _check_square(a)
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1 :, k]
        xnorm = float(np.linalg.norm(x))
        if xnorm == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(xnorm, x[0])
        v /= float(np.linalg.norm(v))  # its norm is at least |v[0]| >= xnorm > 0
        # similarity by P = I - 2 v v^T on the trailing block
        h[k + 1 :, k:] -= 2.0 * np.outer(v, v @ h[k + 1 :, k:])
        h[:, k + 1 :] -= 2.0 * np.outer(h[:, k + 1 :] @ v, v)
        h[k + 2 :, k] = 0.0
    return h


def _eig2(a: float, b: float, c: float, d: float) -> tuple[complex, complex]:
    """Eigenvalues of [[a, b], [c, d]]; complex results are exact conjugates."""
    half_tr = 0.5 * (a + d)
    det = a * d - b * c
    disc = half_tr * half_tr - det
    if disc >= 0.0:
        s = math.sqrt(disc)
        r1 = half_tr + s if half_tr >= 0.0 else half_tr - s
        if r1 == 0.0:
            return 0j, 0j
        return complex(r1), complex(det / r1)
    s = math.sqrt(-disc)
    return complex(half_tr, s), complex(half_tr, -s)


def _house3(x: float, y: float, z: float):
    """Unit Householder vector annihilating the tail of (x, y, z)."""
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        return None
    v = np.array([x + math.copysign(norm, x), y, z])
    return v / float(np.linalg.norm(v))  # its norm is at least |v[0]| >= norm > 0


def _francis_step(h: np.ndarray, lo: int, hi: int, exceptional: bool) -> None:
    """One implicit double-shift sweep on the unreduced block h[lo:hi+1, lo:hi+1].

    Transforms are restricted to the block; the matrix stays block upper
    triangular as far as eigenvalues are concerned, which is all we keep.
    """
    m = hi - 1
    if exceptional:
        # ad-hoc shift in the style of LAPACK's dlahqr, breaks shift cycling
        wil = abs(h[hi, hi - 1]) + (abs(h[hi - 1, hi - 2]) if hi - 2 >= lo else 0.0)
        sh = h[hi, hi] + 0.75 * wil
        s = 2.0 * sh
        t = sh * sh
    else:
        s = h[m, m] + h[hi, hi]
        t = h[m, m] * h[hi, hi] - h[m, hi] * h[hi, m]
    x = h[lo, lo] * h[lo, lo] + h[lo, lo + 1] * h[lo + 1, lo] - s * h[lo, lo] + t
    y = h[lo + 1, lo] * (h[lo, lo] + h[lo + 1, lo + 1] - s)
    z = h[lo + 2, lo + 1] * h[lo + 1, lo]
    for k in range(lo, hi - 1):
        v = _house3(x, y, z)
        if v is not None:
            q = max(lo, k - 1)
            blk = h[k : k + 3, q : hi + 1]
            blk -= 2.0 * np.outer(v, v @ blk)
            r = min(k + 3, hi)
            blk = h[lo : r + 1, k : k + 3]
            blk -= 2.0 * np.outer(blk @ v, v)
        x = h[k + 1, k]
        y = h[k + 2, k]
        if k < hi - 2:
            z = h[k + 3, k]
    norm = math.hypot(x, y)
    if norm != 0.0:
        v = np.array([x + math.copysign(norm, x), y])
        v /= float(np.linalg.norm(v))  # its norm is at least |v[0]| >= norm > 0
        blk = h[hi - 1 : hi + 1, hi - 2 : hi + 1]
        blk -= 2.0 * np.outer(v, v @ blk)
        blk = h[lo : hi + 1, hi - 1 : hi + 1]
        blk -= 2.0 * np.outer(blk @ v, v)


def eigvals(a) -> np.ndarray:
    """All eigenvalues of a real square matrix, unordered.

    The iteration runs on the matrix times the power of two that brings
    its largest entry into [0.5, 1): exact, and no square leaves the range.

    Parameters
    ----------
    a : array_like, shape (n, n)
        Real matrix with finite entries, n <= MAX_DENSE_N.

    Raises
    ------
    EigenvalueConvergenceError
        If SWEEPS_PER_ORDER * n QR sweeps end before full deflation.
        Never returns silently wrong values in that case.
    """
    h = _check_square(a)
    n = h.shape[0]
    if n == 0:
        return np.empty(0, dtype=complex)
    if n == 1:
        return np.array([complex(h[0, 0])])
    e = int(np.frexp(np.abs(h).max())[1])
    out = _scaled_eigvals(np.ldexp(h, -e))
    return np.ldexp(out.view(float), e).view(complex)


def _scaled_eigvals(h: np.ndarray) -> np.ndarray:
    """eigvals of a checked matrix of order >= 2 with entries below 1 in modulus."""
    n = h.shape[0]
    hnorm = float(np.linalg.norm(h))
    if hnorm == 0.0:
        return np.zeros(n, dtype=complex)
    if n == 2:
        return np.array(_eig2(h[0, 0], h[0, 1], h[1, 0], h[1, 1]))
    h = hessenberg(h)
    cap = SWEEPS_PER_ORDER * n
    out = np.empty(n, dtype=complex)
    hi = n - 1
    sweeps = 0
    stalled = 0
    while hi >= 0:
        if hi == 0:
            out[0] = h[0, 0]
            break
        # deflate: largest lo <= hi whose subdiagonal entry is negligible
        lo = 0
        for i in range(hi, 0, -1):
            scale = abs(h[i - 1, i - 1]) + abs(h[i, i])
            if abs(h[i, i - 1]) <= max(_TOL * scale, _EPS * hnorm):
                h[i, i - 1] = 0.0
                lo = i
                break
        if lo == hi:
            out[hi] = h[hi, hi]
            hi -= 1
            stalled = 0
            continue
        if lo == hi - 1:
            e1, e2 = _eig2(h[lo, lo], h[lo, hi], h[hi, lo], h[hi, hi])
            out[hi] = e1
            out[hi - 1] = e2
            hi -= 2
            stalled = 0
            continue
        sweeps += 1
        stalled += 1
        if sweeps > cap:
            raise EigenvalueConvergenceError(
                f"no convergence after {cap} QR sweeps on an order-{n} matrix "
                f"(block [{lo}, {hi}] still unreduced)"
            )
        _francis_step(h, lo, hi, exceptional=(stalled % 10 == 0))
    return out
