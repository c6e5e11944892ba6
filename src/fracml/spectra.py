"""Circulant couplings of rings and tori, and their spectra.

A ``Circulant`` couples a periodic lattice of shape (n,) or (n, m, ...)
through a stencil of axis-aligned offsets.  The stencil alone gives the
matrix, the closed-form spectrum and the mode-space runs of
:mod:`fracml.dynamics`.  ``CirculantSpec`` builds the three-term ring,
``BlockCirculantSpec`` the nearest-neighbor torus.  Other matrices take
the QR solver in :mod:`fracml.eig`.  Closed-form spectra pair exactly in
every dimension: mode -l holds the exact conjugate of mode l, and the
trigonometric factors are snapped to 0 / +-1 at quarter turns, so real
eigenvalues carry an imaginary part equal to 0.0 (+0.0 or -0.0).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import eig

__all__ = [
    "SITE_CAP",
    "Circulant",
    "CirculantSpec",
    "BlockCirculantSpec",
    "Spectrum",
    "mode_cosine",
    "mode_sine",
    "circulant_eigenvalues",
    "symmetric_eigenvalues",
    "asymmetric_eigenvalues",
    "block_circulant_eigenvalues",
    "dense_eigenvalues",
]


SITE_CAP = 10_000_000  # sites along one axis with a closed-form spectrum: a 160 MB mode table


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


@dataclass(frozen=True)
class Circulant:
    """Translation-invariant coupling on a periodic lattice, sites in C order.

    ``shape`` is (n,) or (n, m, ...).  ``stencil`` maps integer offsets k
    (plain ints on a 1-D shape) to weights: A[x, x + k] = c_k.  An offset
    with two non-zero components raises ValueError.  Offsets that land on
    one site (+-1 when n = 2) add, in stencil order.
    """

    shape: tuple
    stencil: MappingProxyType = field(hash=False)

    def __post_init__(self):
        shape = tuple(map(int, self.shape))
        if not shape or min(shape) < 1:
            raise ValueError(f"lattice sides must be positive integers, got {self.shape!r}")
        stencil = {}
        for k, c in self.stencil.items():
            k = tuple(map(operator.index, k)) if isinstance(k, tuple) else (operator.index(k),)
            if len(k) != len(shape) or len(k) - k.count(0) > 1:
                raise ValueError(f"offset {k} needs {len(shape)} components, at most one non-zero")
            stencil[k] = float(c)
        pairs = []  # the closed form's (axis, k, (c_k + c_-k, c_k - c_-k)) per pair, k > 0
        for off, c in stencil.items():
            k = sum(off)  # the non-zero component
            back = stencil.get(tuple(map(operator.neg, off))) if k else None
            if k > 0:
                pairs.append((off.index(k), k, np.array((c, c) if back is None else (c + back, c - back))))
            elif k < 0 and back is None:  # else counted with -k
                pairs.append((off.index(k), -k, np.array((c, -c))))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "stencil", MappingProxyType(stencil))
        # (c_0, -0.0), over the whole lattice if no pair spans it; -0.0 keeps the first sine term's sign
        base = np.array((stencil.get((0,) * len(shape), 0.0), -0.0))
        if len({axis for axis, _, _ in pairs}) < len(shape):
            base = np.broadcast_to(base, shape + (2,)).copy()
        object.__setattr__(self, "_terms", (base, pairs))

    def first_column(self, diagonal: float = 0.0) -> np.ndarray:
        """Column 0 of A + diagonal * I, shaped like the lattice: entry -k adds c_k."""
        col = np.zeros(self.shape)
        col.flat[0] = diagonal
        for k, c in self.stencil.items():
            col[tuple(-v % n for v, n in zip(k, self.shape))] += c
        return col

    def matrix(self) -> np.ndarray:
        """Dense coupling matrix, A[x, y] = first_column()[x - y] (mod the shape)."""
        flat = 0
        for i, n in zip(np.indices(self.shape).reshape(len(self.shape), -1), self.shape):
            flat = flat * n + np.subtract.outer(i, i) % n
        return self.first_column().ravel()[flat]


def CirculantSpec(a0: float, a1: float, a2: float, n: int) -> Circulant:
    """Ring coupling: a0 to the left neighbor, a1 self, a2 to the right.

    Periodic boundaries.  For n = 1 all three weights land on the single
    diagonal entry; for n = 2 left and right neighbor coincide, so the
    off-diagonal entry is a0 + a2.
    """
    return Circulant((n,), {0: a1, -1: a0, 1: a2})


def BlockCirculantSpec(a0: float, a1: float, a2: float, n: int, m: int) -> Circulant:
    """2-D torus coupling: a0 along the first axis, a2 along the second."""
    return Circulant((n, m), {(0, 0): a1, (1, 0): a0, (-1, 0): a0, (0, 1): a2, (0, -1): a2})


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues with a tag recording how it was obtained.

    ``source`` is one of ``analytic-circulant`` (a ring), ``analytic-block``
    (two or more axes) or ``numeric-dense``.
    """

    eigenvalues: np.ndarray
    source: str

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=complex)
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def canonical(self) -> np.ndarray:
        """Eigenvalues sorted by real part, then imaginary part."""
        vals = self.eigenvalues
        order = np.lexsort((vals.imag, vals.real))
        return vals[order]


@functools.lru_cache(maxsize=16)
def _trig_table(n: int) -> np.ndarray:
    """Read-only rows (cos, sin) of 2 pi l / n, l < n; row n - l is row l with its sine negated.

    Every closed-form spectrum and symmetric-region margin reads its mode
    values here, so a side above SITE_CAP raises ValueError before any work.
    """
    if n > SITE_CAP:
        raise ValueError(f"{n} sites along one axis exceed the cap of {SITE_CAP}")
    half, m = n // 2 + 1, (n - 1) // 2
    table = np.empty((n, 2))
    table[:half, 0] = np.fromiter((mode_cosine(l, n) for l in range(half)), float, half)
    table[:half, 1] = np.fromiter((mode_sine(l, n) for l in range(half)), float, half)
    table[half:] = table[m:0:-1] * (1.0, -1.0)
    table.flags.writeable = False
    return table


@np.errstate(over="ignore", invalid="ignore")  # huge weights give inf and NaN, as floats do
def circulant_eigenvalues(spec: Circulant) -> Spectrum:
    """Closed-form spectrum, mode l in C order, a the axis of the pair (k, -k):

    lambda_l = c_0 + sum over pairs of (c_k + c_-k) cos(2 pi k l_a / n_a) + i (c_k - c_-k) sin(...).
    """
    shape = spec.shape
    vals, pairs = spec._terms  # vals: (re, im)
    for axis, k, pq in pairs:
        n = shape[axis]
        table = _trig_table(n) if k % n == 1 else _trig_table(n)[k * np.arange(n) % n]
        if len(shape) > 1:
            table = table.reshape(tuple(n if a == axis else 1 for a in range(len(shape))) + (2,))
        vals = vals + table * pq
    return Spectrum(vals.view(complex).ravel(), "analytic-circulant" if len(shape) == 1 else "analytic-block")


def symmetric_eigenvalues(a1: float, a2: float, n: int) -> Spectrum:
    """Spectrum of the symmetric ring (a0 = a2): all real, a1 + 2 a2 cos."""
    return circulant_eigenvalues(CirculantSpec(a2, a1, a2, n))


def asymmetric_eigenvalues(a1: float, a2: float, n: int) -> Spectrum:
    """Spectrum of the antisymmetric ring (a0 = -a2): a1 + 2i a2 sin."""
    return circulant_eigenvalues(CirculantSpec(-a2, a1, a2, n))


block_circulant_eigenvalues = circulant_eigenvalues  # a torus is a Circulant of two axes


def dense_eigenvalues(matrix) -> Spectrum:
    """Spectrum of an arbitrary real square matrix via the QR solver, ``eig.eigvals``."""
    return Spectrum(eig.eigvals(matrix), "numeric-dense")
