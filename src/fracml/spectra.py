"""Connectivity matrices of ring and torus lattices, and their spectra.

Closed-form eigenvalues for circulant couplings (left / self / right
weights on a periodic ring), block-circulant 2-D lattices, and a dense
fallback through the QR solver in :mod:`fracml.eig`.  The symmetric
(a0 = a2) and antisymmetric (a0 = -a2) rings are the circulant formula
with those weights.

Analytic spectra are built with exact conjugate pairing: the eigenvalue
for mode N - l is stored as the literal complex conjugate of mode l, and
the trigonometric factors are snapped to 0 / +-1 at quarter turns, so
real eigenvalues carry an imaginary part equal to 0.0 (+0.0 or -0.0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eig

__all__ = [
    "CirculantSpec",
    "BlockCirculantSpec",
    "Spectrum",
    "mode_cosine",
    "mode_sine",
    "distinct_mode_indices",
    "circulant_eigenvalues",
    "symmetric_eigenvalues",
    "asymmetric_eigenvalues",
    "block_circulant_eigenvalues",
    "dense_eigenvalues",
    "multiset_distance",
]


def mode_cosine(j: int, n: int) -> float:
    """cos(2*pi*j/n), exact at multiples of the quarter turn."""
    j = j % n
    if j == 0:
        return 1.0
    if 2 * j == n:
        return -1.0
    if 4 * j == n or 4 * j == 3 * n:
        return 0.0
    return math.cos(2.0 * math.pi * j / n)


def mode_sine(j: int, n: int) -> float:
    """sin(2*pi*j/n), exact at multiples of the quarter turn."""
    j = j % n
    if j == 0 or 2 * j == n:
        return 0.0
    if 4 * j == n:
        return 1.0
    if 4 * j == 3 * n:
        return -1.0
    return math.sin(2.0 * math.pi * j / n)


def distinct_mode_indices(n: int) -> range:
    """Deduplicated mode indices of a symmetric ring: 0 .. floor(n/2)."""
    return range(n // 2 + 1)


def _positive_size(n, name: str = "n") -> int:
    k = int(n)
    if k < 1:
        raise ValueError(f"{name} must be a positive integer, got {n!r}")
    return k


@dataclass(frozen=True)
class CirculantSpec:
    """Ring coupling: a0 to the left neighbor, a1 self, a2 to the right.

    Periodic boundaries.  For n = 1 all three weights land on the single
    diagonal entry; for n = 2 left and right neighbor coincide, so the
    off-diagonal entry is a0 + a2.
    """

    a0: float
    a1: float
    a2: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _positive_size(self.n))
        for name in ("a0", "a1", "a2"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i in range(self.n):
            a[i, i] += self.a1
            a[i, (i + 1) % self.n] += self.a2
            a[i, (i - 1) % self.n] += self.a0
        return a


@dataclass(frozen=True)
class BlockCirculantSpec:
    """2-D torus coupling: a0 along the first axis, a2 along the second."""

    a0: float
    a1: float
    a2: float
    n: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "n", _positive_size(self.n, "n"))
        object.__setattr__(self, "m", _positive_size(self.m, "m"))
        for name in ("a0", "a1", "a2"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def matrix(self) -> np.ndarray:
        n, m = self.n, self.m
        a = np.zeros((n * m, n * m))
        for p in range(n):
            for q in range(m):
                i = p * m + q
                a[i, i] += self.a1
                a[i, ((p + 1) % n) * m + q] += self.a0
                a[i, ((p - 1) % n) * m + q] += self.a0
                a[i, p * m + (q + 1) % m] += self.a2
                a[i, p * m + (q - 1) % m] += self.a2
        return a


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues with a tag recording how it was obtained.

    ``source`` is one of ``analytic-circulant``, ``analytic-block`` or
    ``numeric-dense``.
    """

    eigenvalues: np.ndarray
    source: str

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=complex)
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def __iter__(self):
        return iter(self.eigenvalues)

    def canonical(self) -> np.ndarray:
        """Eigenvalues sorted by real part, then imaginary part."""
        vals = self.eigenvalues
        order = np.lexsort((vals.imag, vals.real))
        return vals[order]


def circulant_eigenvalues(spec: CirculantSpec) -> Spectrum:
    """Eigenvalues a1 + a2 * w^l + a0 * w^(-l), w = exp(2i pi / n)."""
    n = spec.n
    vals = np.empty(n, dtype=complex)
    for l in range(n // 2 + 1):
        c = mode_cosine(l, n)
        s = mode_sine(l, n)
        v = complex(spec.a1 + (spec.a2 + spec.a0) * c, (spec.a2 - spec.a0) * s)
        vals[l] = v
        if 0 < l < n - l:
            vals[n - l] = v.conjugate()
    return Spectrum(vals, "analytic-circulant")


def symmetric_eigenvalues(a1: float, a2: float, n: int) -> Spectrum:
    """Spectrum of the symmetric ring (a0 = a2): all real, a1 + 2 a2 cos."""
    return circulant_eigenvalues(CirculantSpec(a2, a1, a2, n))


def asymmetric_eigenvalues(a1: float, a2: float, n: int) -> Spectrum:
    """Spectrum of the antisymmetric ring (a0 = -a2): a1 + 2i a2 sin."""
    return circulant_eigenvalues(CirculantSpec(-a2, a1, a2, n))


def block_circulant_eigenvalues(spec: BlockCirculantSpec) -> Spectrum:
    """All n*m eigenvalues a1 + 2 a0 cos(2 pi k1/n) + 2 a2 cos(2 pi k2/m)."""
    c1 = np.array([mode_cosine(k, spec.n) for k in range(spec.n)])
    c2 = np.array([mode_cosine(k, spec.m) for k in range(spec.m)])
    grid = spec.a1 + 2.0 * spec.a0 * c1[:, None] + 2.0 * spec.a2 * c2[None, :]
    return Spectrum(grid.ravel().astype(complex), "analytic-block")


def dense_eigenvalues(matrix) -> Spectrum:
    """Spectrum of an arbitrary real square matrix via the QR solver (tol 1e-9)."""
    return Spectrum(eig.eigvals(matrix), "numeric-dense")


def _as_values(spec_or_values) -> np.ndarray:
    if isinstance(spec_or_values, Spectrum):
        return spec_or_values.eigenvalues
    return np.asarray(spec_or_values, dtype=complex)


def multiset_distance(a, b) -> float:
    """Greedy nearest-pair matching distance between two eigenvalue multisets.

    Both sides are put in canonical (re, im) lexicographic order; each
    value of ``a`` in turn grabs the nearest unmatched value of ``b``
    (ties resolved toward the lexicographically smaller candidate).
    Returns the largest matched pair distance.  Reproducible, symmetric
    enough for test tolerances; not an optimal assignment.
    """
    va = _as_values(a)
    vb = _as_values(b)
    if len(va) != len(vb):
        raise ValueError(f"multiset sizes differ: {len(va)} vs {len(vb)}")
    if len(va) == 0:
        return 0.0
    va = va[np.lexsort((va.imag, va.real))]
    vb = list(vb[np.lexsort((vb.imag, vb.real))])
    worst = 0.0
    for v in va:
        dists = [abs(v - u) for u in vb]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        vb.pop(i)
    return float(worst)
