"""Tests for boundary curves, membership tests, and coupling regions."""

import math
import warnings

import numpy as np
import pytest

from fracml import spectra, stability
from fracml.spectra import SITE_CAP, CirculantSpec, circulant_eigenvalues
from fracml.stability import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    AsymmetricRegion,
    Quadrilateral,
    asymmetric_region,
    boundary_beta,
    boundary_gamma,
    boundary_gamma_infinity,
    classify_spectrum,
    curve_margin,
    eigenvalue_in_region,
    innermost_cardioid_index,
    real_interval,
    symmetric_region,
    thermodynamic_region,
)

ALPHAS = [round(0.1 * k, 1) for k in range(1, 11)]


def test_real_interval_values():
    iv = real_interval(0.5)
    assert iv.hi == 1.0
    assert iv.lo == pytest.approx(-0.4142135623730950488, abs=5e-16)
    assert 0.0 in iv
    assert 1.0 not in iv  # open interval
    assert iv.lo not in iv
    assert real_interval(1.0).lo == -1.0


def test_real_interval_margin_sign():
    iv = real_interval(0.5)
    assert iv.signed_margin(0.0) < 0.0
    assert iv.signed_margin(1.5) == pytest.approx(0.5)
    assert iv.signed_margin(1.0) == 0.0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_beta_endpoints_and_closure(alpha):
    curve = boundary_beta(alpha)
    assert tuple(curve.xy[0]) == (1.0, 0.0)
    assert tuple(curve.xy[-1]) == (1.0, 0.0)
    mid = curve.xy[len(curve.xy) // 2]
    assert mid[0] == pytest.approx(1.0 - 2.0**alpha, abs=1e-12)
    assert abs(mid[1]) < 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_beta_mirror_symmetry(alpha):
    xy = boundary_beta(alpha, samples=2048).xy
    flipped = xy[::-1].copy()
    flipped[:, 1] *= -1.0
    assert np.max(np.abs(xy - flipped)) < 1e-12


def test_beta_frozen_point():
    # t = pi/2 is sample 16 of 64; mpmath dps=50 oracle
    xy = boundary_beta(0.5, samples=64).xy
    assert xy[16, 0] == pytest.approx(0.5449101394377726586956, abs=1e-13)
    assert xy[16, 1] == pytest.approx(1.09868411346780996604, abs=1e-13)


def test_beta_alpha_one_is_unit_circle():
    xy = boundary_beta(1.0).xy
    radius = np.hypot(xy[:, 0], xy[:, 1])
    assert np.max(np.abs(radius - 1.0)) < 1e-12


def test_beta_bulges_past_the_cusp():
    # the curve is not confined to x <= 1: near t = 0 it swings right
    xy = boundary_beta(0.5).xy
    assert np.max(xy[:, 0]) > 1.0


def test_beta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        boundary_beta(0.0)
    with pytest.raises(ValueError):
        boundary_beta(0.5, samples=8)


def test_gamma_scales_beta_by_mode_sine():
    beta = boundary_beta(0.7)
    gamma = boundary_gamma(0.7, 8, 2)  # sine exactly 1 at j = n/4
    assert np.array_equal(gamma.xy[:, 0], beta.xy[:, 0])
    assert np.array_equal(gamma.xy[:, 1], beta.xy[:, 1] / 2.0)
    assert gamma.n == 8 and gamma.j == 2 and gamma.kind == "gamma"


def test_gamma_infinity_equals_quarter_mode():
    inf = boundary_gamma_infinity(0.7)
    quarter = boundary_gamma(0.7, 8, 2)
    assert np.array_equal(inf.xy, quarter.xy)
    assert inf.kind == "gamma-infinity"


def test_gamma_rejects_degenerate_modes():
    with pytest.raises(ValueError):
        boundary_gamma(0.5, 6, 3)  # sin(pi) = 0, eigenvalue is real
    with pytest.raises(ValueError):
        boundary_gamma(0.5, 6, 0)
    with pytest.raises(ValueError):
        boundary_gamma(0.5, 6, 4)  # beyond the distinct modes


def test_membership_real_axis_is_exact():
    for alpha in (0.25, 0.5, 0.9):
        lo = 1.0 - 2.0**alpha
        assert eigenvalue_in_region(0.0, alpha).status == STABLE
        # 1e-5 keeps the probes outside the 1e-7 marginal band
        assert eigenvalue_in_region(lo + 1e-5, alpha).status == STABLE
        assert eigenvalue_in_region(lo - 1e-5, alpha).status == UNSTABLE
        assert eigenvalue_in_region(2.0, alpha).status == UNSTABLE
        # a dense solver's nearly real eigenvalues need no snapping
        for x in (lo + 1e-5, lo - 1e-5, 0.3, 2.0):
            exact, near = eigenvalue_in_region(x, alpha), eigenvalue_in_region(complex(x, -1e-17), alpha)
            assert near.status == exact.status
            assert near.margin == pytest.approx(exact.margin, abs=1e-15)


def test_membership_cusp_is_marginal():
    assert eigenvalue_in_region(1.0, 0.5).status == MARGINAL


def test_membership_point_on_curve_is_marginal():
    x, y = boundary_beta(0.6).xy[1371]
    v = eigenvalue_in_region(complex(x, y), 0.6)
    assert v.status == MARGINAL


def test_membership_right_wedge_excluded_but_lobes_included():
    # the wedge past the cusp is outside even with Re < bulge
    assert eigenvalue_in_region(1.05 + 0.01j, 0.5).status == UNSTABLE
    # complex points with Re > 1 inside the lobes are stable
    assert eigenvalue_in_region(1.05 + 0.6j, 0.5).status == STABLE


def test_membership_reference_verdicts():
    assert eigenvalue_in_region(-0.65 + 0.0866025j, 0.4).status == UNSTABLE
    assert eigenvalue_in_region(-0.45 + 0.0866j, 0.8).status == STABLE


def test_membership_margin_sign_and_magnitude():
    v_in = eigenvalue_in_region(0.5 + 0.2j, 0.8)
    v_out = eigenvalue_in_region(-3.0 + 0.2j, 0.8)
    assert v_in.status == STABLE and v_in.margin < 0.0
    assert v_out.status == UNSTABLE and v_out.margin > 0.0
    assert v_out.margin == pytest.approx(
        abs(complex(-3.0, 0.2) - complex(1.0 - 2.0**0.8, 0.0)), rel=0.3
    )


def _polygon_contains(points, xy):
    # even-odd ray casting against the sampled closed polygon
    x0, y0, x1, y1 = xy[:-1, 0], xy[:-1, 1], xy[1:, 0], xy[1:, 1]
    px, py = points.real[:, None], points.imag[:, None]
    crosses = (y0 > py) != (y1 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
    return np.count_nonzero(crosses & (px < xs), axis=1) % 2 == 1


@pytest.mark.parametrize("alpha, n, j", [(0.65, None, None), (0.15, None, None), (0.4, 7, 2)])
def test_membership_exact_agrees_with_sampled_polygon(alpha, n, j):
    # away from the polygon's chords the sampled curve and the exact rule agree
    samples = 4096
    if n is None:
        curve, yscale = boundary_beta(alpha, samples), 1.0
    else:
        curve, yscale = boundary_gamma(alpha, n, j, samples), 2.0 * math.sin(2.0 * math.pi * j / n)
    rng = np.random.default_rng(31)
    points = rng.uniform(-2.0, 2.0, 600) + 1j * rng.uniform(-1.8, 1.8, 600) / yscale
    margin = curve_margin(points, alpha, yscale)
    clear = np.abs(margin) > 10.0 / samples
    assert np.count_nonzero(clear) > 450
    assert np.array_equal((margin < 0.0)[clear], _polygon_contains(points, curve.xy)[clear])


def test_membership_lobe_point_right_of_the_cusp():
    # inside the curve by 3.97e-7 (mpmath, 40 digits); an 8192-gon's chord
    # error there is larger than that, and it called the point unstable
    alpha = 0.1586272484701054
    v = eigenvalue_in_region(1.5938146224751797 - 0.1802158556099759j, alpha)
    assert v.status == STABLE
    assert v.margin == pytest.approx(-3.970851290979297678e-7, abs=1e-15)


def _distance_oracle(points, alpha, yscale):
    """Distance to the y-scaled curve by dense search and golden sections.

    Two parametrisations cover the upper half curve: by t, and by the
    distance rho from the cusp, where theta(rho) = alpha pi/2 +
    (2 - alpha) arcsin(rho^(1/alpha) / 2).  Near the cusp t underflows
    long before rho does, so the rho grid resolves it; near t = pi the
    rho parametrisation is singular and the t grid resolves it.
    """
    a = alpha
    p = points.real - 1.0 + 1j * (yscale * np.abs(points.imag))  # lambda - 1 in the beta plane

    def by_t(t):
        return (2.0 * np.sin(0.5 * t)) ** a * np.exp(1j * (0.5 * a * math.pi + t * (1.0 - 0.5 * a)))

    def by_rho(rho):
        s = np.minimum(0.5 * rho ** (1.0 / a), 1.0)
        return rho * np.exp(1j * (0.5 * a * math.pi + (2.0 - a) * np.arcsin(s)))

    def dist2(curve, param, q):
        e = curve(param) - q
        return e.real**2 + (e.imag / yscale) ** 2

    best = np.full(len(p), np.inf)
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    q = p[:, None]
    for curve, top in ((by_t, math.pi), (by_rho, 2.0**a)):
        grid = np.linspace(0.0, top, 4097)
        d = dist2(curve, grid[None, :], q)
        best = np.minimum(best, d.min(axis=1))
        pad = np.pad(d, ((0, 0), (1, 1)), constant_values=np.inf)
        local = (d <= pad[:, :-2]) & (d <= pad[:, 2:])
        order = np.argsort(np.where(local, d, np.inf), axis=1)[:, :3]  # best three local minima
        lo = grid[np.maximum(order - 1, 0)]
        hi = grid[np.minimum(order + 1, len(grid) - 1)]
        for _ in range(90):
            x1 = hi - gold * (hi - lo)
            x2 = lo + gold * (hi - lo)
            f1, f2 = dist2(curve, x1, q), dist2(curve, x2, q)
            left = f1 < f2
            hi = np.where(left, x2, hi)
            lo = np.where(left, lo, x1)
            best = np.minimum(best, np.minimum(f1, f2).min(axis=1))
    return np.sqrt(best)


@pytest.mark.parametrize("alpha", [0.02, 0.06, 0.15, 0.35, 0.6, 0.85, 1.0])
@pytest.mark.parametrize("yscale", [1.0, 2.0 * math.sin(2.0 * math.pi * 2 / 7)])
def test_curve_margin_matches_oracle(alpha, yscale):
    rng = np.random.default_rng(int(alpha * 1000) + 7)
    wide = rng.uniform(-2.2, 2.2, 60) + 1j * rng.uniform(-1.6, 1.6, 60)
    # near the cusp, from every direction, down to 1e-9 away
    cusp = 1.0 + 10.0 ** rng.uniform(-9, -0.5, 40) * np.exp(1j * rng.uniform(-math.pi, math.pi, 40))
    # on and next to the curve itself, the lobes right of the cusp included
    t = np.concatenate((10.0 ** rng.uniform(-12, -1, 20), rng.uniform(0.0, 2.0 * math.pi, 20)))
    lam = 1.0 + (2.0 * np.sin(0.5 * t)) ** alpha * np.exp(1j * (0.5 * alpha * math.pi + t * (1.0 - 0.5 * alpha)))
    near = lam + 10.0 ** rng.uniform(-8, -2, 40) * np.exp(1j * rng.uniform(-math.pi, math.pi, 40))
    points = np.concatenate((wide, cusp, near))
    points = points.real + 1j * points.imag / yscale
    margin = curve_margin(points, alpha, yscale)
    assert np.max(np.abs(np.abs(margin) - _distance_oracle(points, alpha, yscale))) < 1e-9


@pytest.mark.parametrize("alpha, yscale, lam", [
    (0.04174078466430968, 0.24167792771541155, 1.4400344742210263 - 0.6102332193954043j),
    (0.028969236922992768, 0.41019476614114947, 0.977408714025688 - 1.1191397880587848j),
    (0.10690915929183398, 1.0, 0.5677952552513927 + 0.31600518174234526j),
    (0.34623353206364826, 1.0, 0.6345580869705607 + 0.47030844710318975j),
])
def test_curve_margin_finds_the_nearer_of_two_arcs(alpha, yscale, lam):
    # nearly as far from two arcs: refining only the best seed ends on the
    # farther arc, off by up to 2e-2
    points = np.array([lam])
    margin = curve_margin(points, alpha, yscale)
    assert abs(abs(margin[0]) - _distance_oracle(points, alpha, yscale)[0]) < 1e-12


def test_curve_margin_conjugates_are_bit_identical():
    rng = np.random.default_rng(5)
    lam = rng.uniform(-1.5, 1.5, 257) + 1j * rng.uniform(-1.5, 1.5, 257)
    for alpha, yscale in ((0.3, 1.0), (0.8, 1.7)):
        both = curve_margin(np.concatenate((lam, np.conj(lam[::-1]))), alpha, yscale)
        assert np.array_equal(both[:257].view(np.int64), both[257:][::-1].view(np.int64))


@pytest.mark.parametrize("chunk", [None, 50])
def test_curve_margin_of_a_point_does_not_depend_on_the_batch(monkeypatch, chunk):
    # every point gets the bits it gets alone, whatever else is in the call
    # and whichever block of the search it lands in
    if chunk is not None:
        monkeypatch.setattr(stability, "_CHUNK", chunk)
    rng = np.random.default_rng(21)
    for alpha, yscale in ((0.05, 1.0), (0.45, 1.0), (0.8, 1.3), (1.0, 0.4)):
        wide = rng.uniform(-2.0, 2.5, 90) + 1j * rng.uniform(-2.0, 2.0, 90)
        t = rng.uniform(0.0, 2.0 * math.pi, 30)
        on = 1.0 + (2.0 * np.sin(0.5 * t)) ** alpha * np.exp(1j * (0.5 * alpha * math.pi + t * (1.0 - 0.5 * alpha)))
        near = on + 10.0 ** rng.uniform(-9, -2, 30) * np.exp(1j * rng.uniform(-math.pi, math.pi, 30))
        points = np.concatenate((wide, near, np.conj(wide[:20]), wide[:10], [1.0, complex(math.inf, 1.0)]))
        points = points[rng.permutation(len(points))]
        together = curve_margin(points, alpha, yscale)
        alone = np.array([curve_margin(p, alpha, yscale) for p in points])
        assert together.tobytes() == alone.tobytes()


@pytest.mark.parametrize("n", [5001, 6144, 8191])
def test_conjugate_ring_modes_above_the_chunk_get_equal_margins(n):
    # modes l and n - l are exact conjugates, and with n above the search's
    # block of points they are refined in different blocks
    assert n > stability._CHUNK
    rng = np.random.default_rng(n)
    lam = circulant_eigenvalues(CirculantSpec(*rng.uniform(-0.6, 0.6, 3), n)).eigenvalues
    margins = curve_margin(lam, rng.uniform(0.2, 1.0))
    assert margins[1:].tobytes() == margins[1:][::-1].tobytes()


def test_spectrum_margins_refine_each_folded_value_once_with_the_same_bits():
    # conjugate pairs and repeats are refined once; every value keeps the
    # margin curve_margin gives it
    rng = np.random.default_rng(8)
    spectra = [circulant_eigenvalues(CirculantSpec(*rng.uniform(-0.6, 0.6, 3), n)).eigenvalues
               for n in (1, 5, 63, 64, 65, 300)]
    spectra.append(np.repeat(rng.uniform(-1, 2, 40) + 1j * rng.uniform(-1, 1, 40), 3))
    for values in spectra:
        alpha = rng.uniform(0.1, 1.0)
        got = stability._spectrum_curve_margin(values, alpha)
        assert got.tobytes() == curve_margin(values, alpha).tobytes()


def test_curve_margin_shape_and_validation():
    assert curve_margin(0.0, 0.5).shape == ()
    assert curve_margin(np.zeros((3, 2)), 0.5).shape == (3, 2)
    with pytest.raises(ValueError):
        curve_margin(0.0, 0.5, yscale=0.0)
    with pytest.raises(ValueError):
        curve_margin(0.0, 1.5)


def test_classify_spectrum_aggregates():
    spec = circulant_eigenvalues(CirculantSpec(0.2, -0.5, 0.1, 3))
    v = classify_spectrum(spec, 0.4)
    assert v.status == UNSTABLE
    assert not v
    # witness is reported from the upper half plane
    assert v.witness == pytest.approx(-0.65 + 0.08660254037844387j, abs=1e-12)
    v8 = classify_spectrum(circulant_eigenvalues(CirculantSpec(0.2, -0.3, 0.1, 3)), 0.8)
    assert v8.status == STABLE
    assert v8.witness is None
    assert bool(v8)


def test_classify_spectrum_accepts_plain_arrays():
    v = classify_spectrum([0.2, -0.1], 0.5)
    assert v.status == STABLE
    with pytest.raises(ValueError):
        classify_spectrum([], 0.5)
    with pytest.raises(ValueError):
        classify_spectrum([0.2, complex("nan")], 0.5)


def test_classify_spectrum_unstable_beats_marginal():
    vals = [1.0, 5.0]  # cusp (marginal) plus a far outside point
    assert classify_spectrum(vals, 0.5).status == UNSTABLE


def test_symmetric_region_even_vertices_frozen():
    quad = symmetric_region(0.2, 8)
    assert quad.parity == "even"
    q1, q2, q3, q4 = quad.vertices
    assert q1 == (0.0, 1.0)
    assert q2[0] == pytest.approx(-0.2871745887492587517, abs=1e-15)
    assert q2[1] == pytest.approx(0.4256508225014824966, abs=1e-15)
    assert q3[0] == 0.0
    assert q3[1] == pytest.approx(1.0 - 2.0**0.2, abs=1e-15)
    assert q4 == (-q2[0], q2[1])


def test_symmetric_region_even_is_size_independent():
    assert symmetric_region(0.3, 6).vertices == symmetric_region(0.3, 12).vertices


def test_symmetric_region_odd_vertices_frozen():
    quad = symmetric_region(0.5, 9)
    assert quad.parity == "odd"
    q2 = quad.vertices[1]
    q4 = quad.vertices[3]
    assert q2[0] == pytest.approx(-0.3645457912295649868, abs=1e-14)
    assert q2[1] == pytest.approx(0.3148780200860349248, abs=1e-14)
    assert q4[1] == pytest.approx(0.2709084175408700264, abs=1e-14)


def test_symmetric_region_vertices_lie_on_their_half_planes():
    for alpha, n in ((0.2, 8), (0.5, 9), (0.9, 7), (0.35, 12)):
        quad = symmetric_region(alpha, n)
        for a2, a1 in quad.vertices:
            assert abs(quad.signed_margin(a2, a1)) < 1e-12


def test_symmetric_region_membership_examples():
    quad = symmetric_region(0.2, 8)
    assert quad.contains(-0.05, 0.1)
    assert not quad.contains(0.1, -0.02)
    quad9 = symmetric_region(0.5, 9)
    assert quad9.contains(-0.1, 0.6)
    assert not quad9.contains(0.6, 0.2)


def test_symmetric_region_classify_band():
    quad = symmetric_region(0.4, 6)
    assert quad.classify(0.0, 0.5).status == STABLE
    assert quad.classify(0.0, 2.0).status == UNSTABLE
    assert quad.classify(0.0, 1.0).status == MARGINAL  # top vertex


def test_symmetric_region_rejects_tiny_lattice():
    with pytest.raises(ValueError, match="n = 1 is a single uncoupled site"):
        symmetric_region(0.5, 1)


def test_odd_region_contains_even_region():
    for alpha in (0.2, 0.6, 1.0):
        even = symmetric_region(alpha, 8)
        for n in (5, 9, 33):
            odd = symmetric_region(alpha, n)
            for a2, a1 in even.vertices:
                # shared top/bottom vertices sit on the odd boundary too
                assert odd.signed_margin(a2, a1) < 1e-12
            # odd lateral vertex lies strictly outside the even region
            assert not even.contains(*odd.vertices[1])


def test_odd_lateral_vertex_approaches_even_quadratically():
    alpha = 0.45
    even_x = -(2.0 ** (alpha - 2.0))
    gaps = []
    for n in (5, 9, 17, 33, 65):
        gaps.append(abs(symmetric_region(alpha, n).vertices[1][0] - even_x))
    ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    # halving 1/N roughly quadruples the gap ratio
    assert all(3.0 < r < 5.0 for r in ratios)


def test_innermost_cardioid_index_values():
    assert innermost_cardioid_index(3) == 1
    assert innermost_cardioid_index(4) == 1
    assert innermost_cardioid_index(6) == 1
    assert innermost_cardioid_index(7) == 2
    assert innermost_cardioid_index(8) == 2
    assert innermost_cardioid_index(1000) == 250
    with pytest.raises(ValueError):
        innermost_cardioid_index(2)


def test_innermost_cardioid_is_least_sine_distance():
    # the chosen mode has sin(2 pi j / n) maximal among distinct modes
    for n in range(3, 60):
        j = innermost_cardioid_index(n)
        sines = [math.sin(2.0 * math.pi * k / n) for k in range(1, n // 2 + 1)]
        # reflection-equal sines can differ by an ulp, hence the slack
        assert math.sin(2.0 * math.pi * j / n) >= max(sines) - 1e-12


def test_asymmetric_region_structure():
    region = asymmetric_region(0.3, 6)
    assert isinstance(region, AsymmetricRegion)
    assert region.j == 1
    assert region.yscale == 2.0 * math.sin(2.0 * math.pi / 6)
    tiny = asymmetric_region(0.3, 2)
    assert tiny.yscale is None


def test_asymmetric_region_membership_examples():
    region = asymmetric_region(0.3, 6)
    assert region.classify(-0.1, -0.22).status == STABLE
    assert region.classify(-0.3, 0.5).status == UNSTABLE
    assert region.contains(-0.1, -0.22)
    assert not region.contains(-0.3, 0.5)


def test_asymmetric_region_strip_constraint_binds():
    region = asymmetric_region(0.5, 8)
    # a1 beyond the real interval is unstable no matter how small a2 is
    assert region.classify(1.2, 0.0).status == UNSTABLE
    assert region.classify(-0.5, 0.0).status == UNSTABLE
    assert region.classify(0.0, 0.0).status == STABLE


def test_asymmetric_tiny_lattice_ignores_a2():
    region = asymmetric_region(0.7, 2)
    assert region.classify(0.5, 100.0).status == STABLE
    assert region.classify(1.5, 0.0).status == UNSTABLE


def test_asymmetric_matches_spectrum_classification():
    # geometry route and spectrum route must agree away from the boundary
    rng = np.random.default_rng(12)
    alpha, n = 0.45, 7
    region = asymmetric_region(alpha, n)
    for _ in range(200):
        a1 = rng.uniform(-1.0, 1.4)
        a2 = rng.uniform(-1.2, 1.2)
        geo = region.classify(a1, a2)
        if abs(geo.margin) < 1e-3:
            continue
        spec = circulant_eigenvalues(CirculantSpec(-a2, a1, a2, n))
        assert classify_spectrum(spec, alpha).status == geo.status


def test_symmetric_matches_spectrum_classification():
    rng = np.random.default_rng(13)
    alpha, n = 0.35, 9
    quad = symmetric_region(alpha, n)
    for _ in range(200):
        a2 = rng.uniform(-0.6, 0.6)
        a1 = rng.uniform(-1.0, 1.4)
        geo = quad.classify(a2, a1)
        if abs(geo.margin) < 1e-3:
            continue
        spec = circulant_eigenvalues(CirculantSpec(a2, a1, a2, n))
        assert classify_spectrum(spec, alpha).status == geo.status


def test_thermodynamic_symmetric_is_even_quadrilateral():
    thermo = thermodynamic_region(0.6, "symmetric")
    assert isinstance(thermo, Quadrilateral)
    assert thermo.vertices == symmetric_region(0.6, 8).vertices
    assert thermo.n is None
    # the limit region sits inside every finite odd region
    odd = symmetric_region(0.6, 11)
    for a2, a1 in thermo.vertices:
        assert odd.signed_margin(a2, a1) < 1e-12


def test_thermodynamic_asymmetric_uses_limit_curve():
    thermo = thermodynamic_region(0.6, "asymmetric")
    assert isinstance(thermo, AsymmetricRegion)
    assert thermo.n is None
    assert thermo.yscale == 2.0  # the y scale of boundary_gamma_infinity
    # the limit region is contained in every finite-N region
    finite = asymmetric_region(0.6, 9)
    for a1, a2 in ((0.3, 0.2), (0.0, -0.4), (-0.2, 0.1)):
        if thermo.contains(a1, a2):
            assert finite.contains(a1, a2)


def test_thermodynamic_asymmetric_equals_quarter_mode_region():
    # at n = 8 the innermost mode has sin(2 pi j / n) = 1, the limit's factor
    rng = np.random.default_rng(17)
    for alpha in (0.1, 0.45, 0.9):
        thermo = thermodynamic_region(alpha, "asymmetric")
        quarter = asymmetric_region(alpha, 8)
        a1 = rng.uniform(-1.2, 1.2, 300)
        a2 = rng.uniform(-1.0, 1.0, 300)
        margin = thermo.signed_margin(a1, a2)
        assert np.array_equal(margin, quarter.signed_margin(a1, a2))
        assert np.count_nonzero(margin < 0.0) > 30 and np.count_nonzero(margin > 0.0) > 30
        for x, y in zip(a1[:40], a2[:40]):
            assert thermo.classify(x, y) == quarter.classify(x, y)


def test_thermodynamic_mode_is_validated():
    with pytest.raises(ValueError):
        thermodynamic_region(0.5, "diagonal")


@pytest.mark.parametrize("region", [
    symmetric_region(0.5, 4), symmetric_region(0.5, 7), thermodynamic_region(0.5, "symmetric"),
    asymmetric_region(0.5, 8), asymmetric_region(0.5, 2), thermodynamic_region(0.5, "asymmetric"),
], ids=["sym-4", "sym-7", "thermo-sym", "asym-8", "asym-2", "thermo-asym"])
def test_region_classify_refuses_nan_parameters(region):
    # a NaN margin is no verdict; raise before any geometry, so no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in ((math.nan, 0.1), (0.1, math.nan)):
            with pytest.raises(ValueError, match="NaN"):
                region.classify(*params)


def test_points_at_infinity_have_infinite_margin_without_warnings():
    far = [math.inf, complex(-math.inf, 1.0), complex(0.0, math.inf), 1e200, complex(1e308, 1e308)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for yscale in (1.0, 2.0):
            assert (curve_margin(far, 0.5, yscale) == math.inf).all()
            for p in far:
                assert curve_margin(p, 0.5, yscale) == math.inf
        # a NaN part is still no margin, and a finite neighbor keeps its own
        assert math.isnan(curve_margin(complex(math.inf, math.nan), 0.5))
        assert curve_margin([0.5, math.inf], 0.5)[0] == pytest.approx(-0.5, abs=1e-12)
        assert eigenvalue_in_region(complex(0.0, math.inf), 0.5).margin == math.inf


@pytest.mark.parametrize("n", [SITE_CAP + 1, 10**12])
def test_symmetric_margins_decide_a_ring_above_the_site_cap_without_a_mode_table(monkeypatch, n):
    # a margin reads the cosines of modes 0 and n//2 only, so no side is too long
    def refuse(*args, **kwargs):
        raise AssertionError("a symmetric margin built a mode table")

    monkeypatch.setattr(spectra, "_mode_table", refuse)
    region = symmetric_region(0.5, n)
    for a2, a1, status in ((0.1, 0.2, STABLE), (0.0, 1.5, UNSTABLE), (0.0, 1.0, MARGINAL)):
        margin = region.signed_margin(a2, a1)
        assert region.classify(a2, a1) == stability.Verdict(status, margin=float(margin))
        assert region.contains(a2, a1) == (status == STABLE)
        if n % 2 == 0:  # every even ring has the same region
            assert margin == symmetric_region(0.5, 4).signed_margin(a2, a1)
