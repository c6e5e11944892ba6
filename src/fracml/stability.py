"""Stability geometry for synchronized fixed points of fractional lattices.

The closed boundary curve traced by z -> z (1 - 1/z)^alpha + 1 over the
unit circle, per-eigenvalue membership verdicts, coupling-plane regions
for symmetric and antisymmetric rings, and their large-lattice limits.

The curve is star-shaped about its cusp (1, 0): on it, lambda - 1 has
modulus (2 sin(t/2))^alpha and argument alpha pi/2 + t (1 - alpha/2),
which increases strictly with t, so every ray from the cusp meets it
once.  Membership is therefore decided exactly, ray by ray, and the
margin is the exact Euclidean distance to the curve.  Coupling-plane
curves are y-scaled copies of the same curve; the symmetric coupling
region is decided by exact half-plane inequalities.  Sampled curves
exist only for export.  Theorems behind these regions use strict
inequalities, so points within a small band of the boundary report
``marginal``, never ``stable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fractional import validate_order
from .spectra import _trig_table, mode_sine

__all__ = [
    "DEFAULT_SAMPLES",
    "SAMPLES_CAP",
    "BOUNDARY_BAND",
    "BoundaryCurve",
    "RealInterval",
    "Quadrilateral",
    "AsymmetricRegion",
    "Verdict",
    "boundary_beta",
    "boundary_gamma",
    "boundary_gamma_infinity",
    "real_interval",
    "curve_margin",
    "margin_status",
    "eigenvalue_in_region",
    "classify_spectrum",
    "symmetric_region",
    "innermost_cardioid_index",
    "asymmetric_region",
    "thermodynamic_region",
]

# resolution of exported boundary curves; no verdict samples the curve
DEFAULT_SAMPLES = 8192
SAMPLES_CAP = 1_000_000  # a curve and its CSV rows stay within a few hundred MB
# absolute half-width of the "too close to call" band around any boundary
BOUNDARY_BAND = 1e-7

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a membership test.

    ``margin`` is a signed distance to the boundary, negative inside the
    stable set and positive outside; to a curve it is the exact Euclidean
    distance.  The status is read from it (see :func:`margin_status`):
    within the band of zero it is marginal, otherwise its sign decides.
    ``witness`` carries the offending eigenvalue when one exists.
    """

    status: str
    witness: complex | None = None
    margin: float = math.nan

    def __bool__(self) -> bool:
        return self.status == STABLE


@dataclass(frozen=True)
class RealInterval:
    """Open stability interval (1 - 2^alpha, 1) for real eigenvalues."""

    lo: float
    hi: float

    def __contains__(self, x: float) -> bool:
        return self.lo < x < self.hi

    def signed_margin(self, x):
        """Distance outside the interval (negative inside); scalars or arrays."""
        return np.maximum(x - self.hi, self.lo - x)


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled closed boundary curve over the parameter t in [0, 2*pi].

    ``kind`` is ``beta`` (eigenvalue plane), ``gamma`` (coupling plane,
    needs lattice size n and mode index j) or ``gamma-infinity``.
    ``xy`` has shape (samples + 1, 2) with the endpoint duplicated.
    """

    alpha: float
    kind: str
    t: np.ndarray
    xy: np.ndarray
    n: int | None = None
    j: int | None = None

    def __post_init__(self):
        self.t.flags.writeable = False
        self.xy.flags.writeable = False


def real_interval(alpha: float) -> RealInterval:
    a = validate_order(alpha)
    return RealInterval(1.0 - 2.0**a, 1.0)


def _curve_points(alpha: float, samples: int) -> tuple[np.ndarray, np.ndarray]:
    if samples < 64:
        raise ValueError(f"need at least 64 samples, got {samples!r}")
    if samples > SAMPLES_CAP:  # checked before linspace allocates the curve
        raise ValueError(f"{samples} samples exceed the cap of {SAMPLES_CAP}")
    t = np.linspace(0.0, 2.0 * math.pi, samples + 1)
    # radial factor |1 - e^{-it}|^alpha = (2 sin(t/2))^alpha; clip guards the
    # sign of sin against rounding at the endpoints, where 0^alpha must be 0
    r = np.power(np.clip(2.0 * np.sin(0.5 * t), 0.0, None), alpha)
    phase = alpha * (0.5 * math.pi) + t * (1.0 - 0.5 * alpha)
    xy = np.empty((samples + 1, 2))
    xy[:, 0] = r * np.cos(phase) + 1.0
    xy[:, 1] = r * np.sin(phase)
    # principal-branch limits at t = 0 and t = 2*pi, free of 0^alpha noise
    xy[0] = (1.0, 0.0)
    xy[-1] = (1.0, 0.0)
    return t, xy


def boundary_beta(alpha: float, samples: int = DEFAULT_SAMPLES) -> BoundaryCurve:
    """Eigenvalue-plane stability boundary for fractional order ``alpha``.

    Uniformly parameterized samples of
    (2^a sin(t/2)^a cos(a pi/2 + t (1 - a/2)) + 1,
     2^a sin(t/2)^a sin(a pi/2 + t (1 - a/2))) on [0, 2*pi], endpoints
    duplicated at the cusp (1, 0).  At alpha = 1 this is the unit circle.
    """
    a = validate_order(alpha)
    t, xy = _curve_points(a, int(samples))
    return BoundaryCurve(a, "beta", t, xy)


def boundary_gamma(
    alpha: float, n: int, j: int, samples: int = DEFAULT_SAMPLES
) -> BoundaryCurve:
    """Coupling-plane boundary for mode ``j`` of an antisymmetric ring.

    The beta curve with the second coordinate divided by
    2 sin(2 pi j / n).  Modes with sin(2 pi j / n) = 0 have a purely real
    eigenvalue and no such curve; use :func:`real_interval` for them.
    """
    a = validate_order(alpha)
    n = int(n)
    j = int(j)
    if not 1 <= j <= n // 2:
        raise ValueError(f"mode index must satisfy 1 <= j <= n//2, got j={j}, n={n}")
    if (2 * j) % n == 0:
        raise ValueError(
            f"sin(2 pi {j}/{n}) = 0: mode {j} is real, test it against the "
            "real interval instead"
        )
    t, xy = _curve_points(a, int(samples))
    xy[:, 1] /= 2.0 * mode_sine(j, n)
    return BoundaryCurve(a, "gamma", t, xy, n=n, j=j)


def boundary_gamma_infinity(
    alpha: float, samples: int = DEFAULT_SAMPLES
) -> BoundaryCurve:
    """Large-lattice limit of the coupling-plane boundary: sin factor -> 1."""
    a = validate_order(alpha)
    t, xy = _curve_points(a, int(samples))
    xy[:, 1] /= 2.0
    return BoundaryCurve(a, "gamma-infinity", t, xy)


# The upper half of the curve (t in [0, pi]) is parametrised by
# v = (t / pi)^alpha in [0, 1].  In t the curve has unbounded derivatives
# at the cusp, where |lambda - 1| ~ t^alpha; in v it is smooth there,
# with |lambda - 1| ~ pi^alpha v.  Newton's method needs that smoothness.
#
# Seeds are uniform in v and in t, about _SEED_STEPS of each.  Eight steps
# already found the nearest point of 12,000 random points to 1e-15 for
# alpha in [0.02, 1]; 32 leave a margin.
_SEED_STEPS = 32
_CHUNK = 4096  # points per block: bounds the (points x seeds) distance table
# Newton stops once no step in v exceeds this; the error of its quadratic
# model is then of order step^3
_NEWTON_TOL = 1e-8


def _locus(v: np.ndarray, a: float):
    """lambda - 1 on the curve at ``v``, with its first two v-derivatives.

    With x = t/2 and q = sin(x)/x: lambda - 1 = v u, u = (pi q)^a e^{i phi},
    phi = a pi/2 + (2 - a) x, and d/dv lambda = u m with
    m = x cot x + i (2 - a) x / a.
    """
    x = (0.5 * math.pi) * v ** (1.0 / a)
    tiny = np.maximum(x, 1e-300)  # sin(x)/x is 1.0 there, and 0/0 is avoided
    q = np.sin(tiny) / tiny
    u = (math.pi * q) ** a * np.exp(1j * (0.5 * a * math.pi + (2.0 - a) * x))
    xcot = np.cos(x) / q
    k = (1j * (2.0 - a) / a) * x
    m = xcot + k
    # the bracket vanishes at the cusp (v = 0), where the second derivative
    # tends to 0 for a < 1
    z2 = u * ((m - 1.0) * m + (xcot - q**-2 + k) / a) / np.maximum(v, 1e-300)
    return v * u, u * m, z2


def _seeds(a: float):
    """Seed parameters, uniform in v and in t, and lambda - 1 at each.

    The t seeds sit at half steps, so they never repeat a v seed at
    alpha = 1, where v and t / pi coincide.
    """
    steps = np.arange(_SEED_STEPS + 1.0)
    v = np.sort(np.concatenate((steps / _SEED_STEPS, ((steps[:-1] + 0.5) / _SEED_STEPS) ** a)))
    return v, _locus(v, a)[0]


def _nearest(p: np.ndarray, a: float, w: float, seeds) -> np.ndarray:
    """Squared distance from folded points to the curve, in the y-weighted metric.

    ``p`` holds lambda - 1 with Im >= 0, and the metric weighs Im by
    ``w``.  The two best local minima over the seeds are refined by
    bracketed Newton steps in v, so a point about equally far from two
    arcs still finds the nearer one.  ``seeds`` is ``_seeds(a)``.
    """
    seeds, seed_z = seeds
    last = len(seeds) - 1
    pc = p[:, None]
    rows = np.arange(len(p))[:, None]
    d = (seed_z.real - pc.real) ** 2 + w * (seed_z.imag - pc.imag) ** 2
    k = np.empty((len(p), 2), dtype=np.intp)
    k[:, 0] = d.argmin(axis=1)
    local = np.ones(d.shape, dtype=bool)
    local[:, 1:] = d[:, 1:] <= d[:, :-1]
    local[:, :-1] &= d[:, :-1] <= d[:, 1:]
    d_local = np.where(local, d, np.inf)
    d_local[rows[:, 0], k[:, 0]] = np.inf
    k[:, 1] = d_local.argmin(axis=1)
    # with a single local minimum both slots refine it
    k[:, 1] = np.where(np.isinf(d_local[rows[:, 0], k[:, 1]]), k[:, 0], k[:, 1])
    below, above = np.maximum(k - 1, 0), np.minimum(k + 1, last)
    lo, v, hi = seeds[below], seeds[k], seeds[above]
    # start from the vertex of the parabola through the three seeds
    d0, d1, d2 = d[rows, below], d[rows, k], d[rows, above]
    num = (v - lo) ** 2 * (d1 - d2) - (hi - v) ** 2 * (d1 - d0)
    den = (v - lo) * (d1 - d2) + (hi - v) * (d1 - d0)
    v = np.minimum(np.maximum(v - 0.5 * np.divide(num, den, out=np.zeros(num.shape), where=den != 0.0), lo), hi)
    for _ in range(60):
        z, z1, z2 = _locus(v, a)
        e = z - pc
        dist = e.real**2 + w * e.imag**2
        g = e.real * z1.real + w * e.imag * z1.imag  # half the derivative in v
        gauss = z1.real**2 + w * z1.imag**2
        h = gauss + e.real * z2.real + w * e.imag * z2.imag  # half the second
        np.copyto(lo, v, where=g < 0.0)
        np.copyto(hi, v, where=g > 0.0)
        newton = h > 0.0
        step = g / np.where(newton, h, gauss)
        nxt = v - step
        newton &= (nxt >= lo) & (nxt <= hi)
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        if (np.abs(nxt - v) <= _NEWTON_TOL).all():
            break
        v = nxt
    # the minimum of the local quadratic model, exact to O(step^3)
    dist = np.where(newton & (np.abs(step) <= _NEWTON_TOL), np.maximum(dist - g * step, 0.0), dist)
    return np.minimum(d1[:, 0], dist.min(axis=1))


@np.errstate(over="ignore", invalid="ignore")  # a far point's squared distance saturates at +inf
def curve_margin(points, alpha: float, yscale: float = 1.0) -> np.ndarray:
    """Signed Euclidean distance from each point to the stability curve.

    Negative inside, positive outside; takes a scalar or an array and
    returns an array of the same shape.  ``yscale`` = 1 is the
    eigenvalue-plane curve (beta).  Otherwise the curve is the copy
    with its y axis divided by ``yscale`` (the coupling-plane gamma
    curves): (x, y) is inside it exactly when x + i yscale y is inside
    beta, and its distance is measured to that copy.

    Membership is exact: with Im folded to >= 0 and theta the argument
    about the cusp, a point is inside iff theta > alpha pi/2 and its
    distance from the cusp is below (2 sin(t/2))^alpha, where
    t = (theta - alpha pi/2) / (1 - alpha/2).  On the real axis this is
    the open interval (1 - 2^alpha, 1).  Points at infinity get +inf, as
    do finite points beyond about 1e154, whose squared distance
    overflows; a NaN part gives NaN.  No warning is raised.
    """
    a = validate_order(alpha)
    s = float(yscale)
    if not s > 0.0:
        raise ValueError(f"yscale must be positive, got {yscale!r}")
    p = np.asarray(points, dtype=complex)
    # folding makes the margins of conjugate points bit-identical
    z = np.array(p.real - 1.0, dtype=complex)
    z.imag = s * np.abs(p.imag)
    far = np.isinf(z) & ~np.isnan(z)
    z = np.where(far, 0.0, z)  # a placeholder: the search sees finite points only
    t = (np.arctan2(z.imag, z.real) - 0.5 * a * math.pi) / (1.0 - 0.5 * a)
    inside = np.abs(z) < (2.0 * np.sin(0.5 * np.maximum(t, 0.0))) ** a
    flat = z.ravel()
    best = np.empty(flat.shape)
    seeds = _seeds(a)
    for start in range(0, len(flat), _CHUNK):
        best[start:start + _CHUNK] = _nearest(flat[start:start + _CHUNK], a, s**-2, seeds)
    d = np.sqrt(best).reshape(z.shape)
    return np.where(far, np.inf, np.where(inside, -d, d))


def _reject_nan(*params: float) -> None:
    """Refuse NaN coupling parameters: their margin would be NaN, which is no verdict."""
    if any(math.isnan(p) for p in params):
        raise ValueError("cannot classify NaN coupling parameters")


def margin_status(margin: float, band: float = BOUNDARY_BAND) -> str:
    """Status of a signed margin: marginal within ``band`` of zero."""
    if abs(margin) < band:
        return MARGINAL
    return STABLE if margin < 0.0 else UNSTABLE


def eigenvalue_in_region(lam: complex, alpha: float) -> Verdict:
    """Verdict for one eigenvalue: marginal within ``BOUNDARY_BAND`` of the curve.

    For another band, use ``classify_spectrum([lam], alpha, band)``.
    """
    return classify_spectrum([complex(lam)], alpha)


def classify_spectrum(spectrum, alpha: float, band: float = BOUNDARY_BAND) -> Verdict:
    """Aggregate verdict over a whole spectrum.

    Stable only if every eigenvalue is stable; a single unstable
    eigenvalue wins over marginal ones.  Both follow from the worst
    (largest) margin, and its eigenvalue is the witness.
    """
    values = np.asarray(getattr(spectrum, "eigenvalues", spectrum), dtype=complex)
    if len(values) == 0:
        raise ValueError("cannot classify an empty spectrum")
    if np.isnan(values).any():
        raise ValueError("cannot classify a spectrum with NaN eigenvalues")
    margins = curve_margin(values, alpha)
    # conjugate pairs tie on margin; report the upper half-plane one
    k = np.argmax(np.where(margins == margins.max(), values.imag, -np.inf))
    margin = float(margins[k])
    status = margin_status(margin, band)
    return Verdict(status, witness=None if status == STABLE else complex(values[k]), margin=margin)


class _Region:
    """Verdicts of a coupling region, read off its ``signed_margin`` at a point of its plane."""

    def classify(self, x: float, y: float) -> Verdict:
        """Verdict at (x, y): marginal within ``BOUNDARY_BAND``; NaN raises ValueError."""
        _reject_nan(x, y)
        margin = float(self.signed_margin(x, y))
        return Verdict(margin_status(margin), margin=margin)

    def contains(self, x: float, y: float) -> bool:
        """Strict membership, no tolerance band: a negative margin."""
        return bool(self.signed_margin(x, y) < 0.0)


@dataclass(frozen=True)
class Quadrilateral(_Region):
    """Stable coupling region of a symmetric ring in the (a2, a1) plane.

    ``vertices`` lists Q1..Q4 counterclockwise starting at (0, 1).  The
    region itself is the intersection of the exact half-planes
    1 - 2^alpha < a1 + 2 a2 cos(2 pi j / n) < 1 over the distinct modes
    j <= n/2, their cosines read from the ring's mode table; vertices
    are derived data for display.  ``n`` is None for the large-lattice
    limit, where the binding cosines are +-1.  Points are (a2, a1).
    Membership is exact unless 1 - 2^alpha rounds to 0 (alpha < 1.6e-16),
    where the margin of a1 + 2 a2 cos = 5e-324 rounds to -0.0 and reads
    outside.
    """

    alpha: float
    parity: str
    vertices: tuple[tuple[float, float], ...]
    n: int | None = None

    def _cosines(self):
        return (1.0, -1.0) if self.n is None else _trig_table(self.n)[: self.n // 2 + 1, 0]

    def signed_margin(self, a2, a1):
        """Largest violation distance over all half-planes (negative inside); scalars or arrays."""
        lo = 1.0 - 2.0**self.alpha
        worst = -math.inf
        for c in self._cosines():
            m = a1 + 2.0 * a2 * c
            scale = math.sqrt(1.0 + 4.0 * c * c)
            worst = np.maximum(worst, np.maximum((m - 1.0) / scale, (lo - m) / scale))
        return worst


def symmetric_region(alpha: float, n: int) -> Quadrilateral:
    """Stable (a2, a1) region of the symmetric ring with ``n`` sites.

    Even n gives the parallelogram with vertices (0, 1),
    (-2^(a-2), 1 - 2^(a-1)), (0, 1 - 2^a), (2^(a-2), 1 - 2^(a-1)); odd n
    gives the slightly larger quadrilateral whose lateral vertices carry
    the factor 1/(1 + cos(pi/n)).  n = 1 has no coupling geometry: test
    a0 + a1 + a2 against the real interval instead.
    """
    a = validate_order(alpha)
    n = int(n)
    if n < 2:
        raise ValueError(
            "n = 1 is a single uncoupled site; test a0 + a1 + a2 against "
            "the real interval instead"
        )
    lo = 1.0 - 2.0**a
    q1 = (0.0, 1.0)
    q3 = (0.0, lo)
    if n % 2 == 0:
        w = 2.0 ** (a - 2.0)
        ymid = 1.0 - 2.0 ** (a - 1.0)
        q2 = (-w, ymid)
        q4 = (w, ymid)
        parity = "even"
    else:
        den = 1.0 + math.cos(math.pi / n)
        w = 2.0 ** (a - 1.0) / den
        q2 = (-w, 2.0**a / den + lo)
        q4 = (w, 1.0 - 2.0**a / den)
        parity = "odd"
    return Quadrilateral(a, parity, (q1, q2, q3, q4), n=n)


def innermost_cardioid_index(n: int) -> int:
    """Mode index whose coupling-plane boundary is innermost.

    The j in 1 <= j <= n//2 with the largest sin(2 pi j / n), that is the
    least |4 j - n| (ties go to the smaller j).  Closed form: n//4 for
    even n, ceil((n-1)/4) for odd n.
    """
    n = int(n)
    if n < 3:
        raise ValueError(f"no cardioid applies for n = {n}; need n >= 3")
    return n // 4 if n % 2 == 0 else (n + 2) // 4


@dataclass(frozen=True)
class AsymmetricRegion(_Region):
    """Stable coupling region of an antisymmetric ring in the (a1, a2) plane.

    For n <= 2 every eigenvalue is a1 itself, so only the real interval
    matters and ``yscale`` is None.  Otherwise the region is the interior
    of the innermost mode's coupling-plane boundary, the eigenvalue-plane
    curve with its y axis divided by ``yscale`` = 2 sin(2 pi j / n), cut
    by the strip 1 - 2^alpha < a1 < 1.  ``n`` is None for the
    large-lattice limit, where ``yscale`` is 2.  Points are (a1, a2).
    """

    alpha: float
    interval: RealInterval
    n: int | None = None
    j: int | None = None
    yscale: float | None = None

    def signed_margin(self, a1, a2):
        """The larger of the strip and curve margins (negative inside); scalars or arrays."""
        margin = self.interval.signed_margin(a1)
        if self.yscale is not None:
            point = np.asarray(a1) + 1j * np.asarray(a2)
            margin = np.maximum(margin, curve_margin(point, self.alpha, self.yscale))
        return margin


def asymmetric_region(alpha: float, n: int) -> AsymmetricRegion:
    """Stable (a1, a2) region of the antisymmetric ring (a0 = -a2)."""
    a = validate_order(alpha)
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    iv = real_interval(a)
    if n <= 2:
        return AsymmetricRegion(a, iv, n=n)
    j = innermost_cardioid_index(n)
    return AsymmetricRegion(a, iv, n=n, j=j, yscale=2.0 * mode_sine(j, n))


def thermodynamic_region(alpha: float, mode: str) -> Quadrilateral | AsymmetricRegion:
    """Large-lattice limit of the coupling region.

    ``symmetric`` returns the even-parity quadrilateral (the limit
    coincides with every even lattice size); ``asymmetric`` returns the
    region bounded by the limit curve whose sin factor is exactly 1.
    """
    a = validate_order(alpha)
    if mode == "symmetric":
        return Quadrilateral(a, "even", symmetric_region(a, 2).vertices)
    if mode == "asymmetric":
        return AsymmetricRegion(a, real_interval(a), yscale=2.0)
    raise ValueError(f"mode must be 'symmetric' or 'asymmetric', got {mode!r}")
