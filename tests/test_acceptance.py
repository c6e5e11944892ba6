"""Acceptance gate: ten numbered criteria, one test each.

Each test pins the protocol and tolerance it enforces; the terminal
summary (see conftest) prints one PASS/FAIL line per criterion.
"""

from fractions import Fraction

import numpy as np

from conftest import multiset_distance
from fracml.dynamics import (
    DECAYING,
    DIVERGED,
    GROWING,
    INCONCLUSIVE,
    classify_trajectory,
    cubic_map,
    circle_map,
    find_homogeneous_equilibrium,
    linear_map,
    linearize_at,
    logistic_map,
    negated_map,
    scaled_map,
    seeded_state,
    simulate_linear,
    simulate_nonlinear,
)
from fracml.fractional import kernel_weights
from fracml.spectra import (
    BlockCirculantSpec,
    CirculantSpec,
    block_circulant_eigenvalues,
    circulant_eigenvalues,
    dense_eigenvalues,
)
from fracml.stability import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    asymmetric_region,
    boundary_beta,
    classify_spectrum,
    innermost_cardioid_index,
    symmetric_region,
)


def test_criterion_01_printed_eigenvalues():
    """Both worked three-site rings reproduce the printed spectra to 1e-6."""
    got = circulant_eigenvalues(CirculantSpec(0.2, -0.5, 0.1, 3)).canonical()
    want = np.array([-0.65 - 0.0866025j, -0.65 + 0.0866025j, -0.2])
    assert np.max(np.abs(got - want)) < 1e-6
    got = circulant_eigenvalues(CirculantSpec(0.2, -0.3, 0.1, 3)).canonical()
    want = np.array([-0.45 - 0.0866j, -0.45 + 0.0866j, 0.0])
    # the imaginary parts were printed to four decimals (0.0866); the exact
    # value 0.1 sin(2 pi / 3) = 0.08660254 sits 2.5e-6 away, so that pair is
    # compared at print resolution instead of 1e-6
    assert np.max(np.abs(got.real - want.real)) < 1e-6
    assert np.max(np.abs(got.imag - want.imag)) < 5e-5


def test_criterion_02_printed_verdicts():
    """The order-0.4 ring is unstable, the order-0.8 ring stable."""
    spec_a = circulant_eigenvalues(CirculantSpec(0.2, -0.5, 0.1, 3))
    assert classify_spectrum(spec_a, 0.4).status == UNSTABLE
    spec_b = circulant_eigenvalues(CirculantSpec(0.2, -0.3, 0.1, 3))
    assert classify_spectrum(spec_b, 0.8).status == STABLE


def test_criterion_03_region_membership():
    """The reference interior/exterior parameter points classify exactly."""
    quad = symmetric_region(0.2, 8)
    assert quad.contains(-0.05, 0.1)
    assert not quad.contains(0.1, -0.02)

    quad9 = symmetric_region(0.5, 9)
    assert quad9.contains(-0.1, 0.6)
    assert not quad9.contains(0.6, 0.2)

    region = asymmetric_region(0.3, 6)
    assert region.classify(-0.1, -0.22).status == STABLE
    assert region.classify(-0.3, 0.5).status == UNSTABLE

    # cubic neighbors around a logistic site, four sites, order 0.6
    mu, delta = 0.05, -0.1
    triple = linearize_at(cubic_map(delta), logistic_map(mu), cubic_map(delta), 0.0)
    spec = circulant_eigenvalues(CirculantSpec(*triple, 4))
    assert classify_spectrum(spec, 0.6).status == STABLE

    # circle-map neighbors with opposite signs, seven sites, order 0.8
    for (mu, delta), expected in (((0.6, -0.8), STABLE), ((1.1, -1.2), UNSTABLE)):
        f2 = circle_map(delta)
        triple = linearize_at(negated_map(f2), logistic_map(mu), f2, 0.0)
        spec = circulant_eigenvalues(CirculantSpec(*triple, 7))
        assert classify_spectrum(spec, 0.8).status == expected


def test_criterion_04_boundary_identities():
    """Curve anchors to 1e-12; order one degenerates to the unit circle."""
    for k in range(1, 11):
        alpha = round(0.1 * k, 1)
        xy = boundary_beta(alpha).xy
        assert abs(xy[0, 0] - 1.0) < 1e-12 and abs(xy[0, 1]) < 1e-12
        mid = xy[len(xy) // 2]
        assert abs(mid[0] - (1.0 - 2.0**alpha)) < 1e-12
        assert abs(mid[1]) < 1e-12
    xy = boundary_beta(1.0).xy
    assert np.max(np.abs(np.hypot(xy[:, 0], xy[:, 1]) - 1.0)) < 1e-12


def test_criterion_05_oracle_equivalence():
    """Closed forms vs dense solver, geometry vs spectra, index brute force."""
    # (a) 200 random ring specs against the dense solver, 1e-8
    rng = np.random.default_rng(20260814)
    for _ in range(200):
        spec = CirculantSpec(*rng.uniform(-1.0, 1.0, 3), int(rng.integers(1, 33)))
        closed = circulant_eigenvalues(spec)
        dense = dense_eigenvalues(spec.matrix())
        assert multiset_distance(closed, dense) < 1e-8

    # (b) innermost cardioid index equals a brute force over exact fractions
    for n in range(3, 1001):
        best = min(
            range(1, n // 2 + 1),
            key=lambda j: (abs(Fraction(j, n) - Fraction(1, 4)), j),
        )
        assert innermost_cardioid_index(n) == best

    # (c) 500 random points: region geometry agrees with spectrum verdicts
    checked = 0
    while checked < 500:
        alpha = rng.uniform(0.05, 1.0)
        n = int(rng.integers(2, 13))
        p1 = rng.uniform(-1.2, 1.2)
        p2 = rng.uniform(-1.2, 1.2)
        if checked % 2 == 0:
            geo = symmetric_region(alpha, n).classify(p2, p1)
            spec = circulant_eigenvalues(CirculantSpec(p2, p1, p2, n))
        else:
            geo = asymmetric_region(alpha, n).classify(p1, p2)
            spec = circulant_eigenvalues(CirculantSpec(-p2, p1, p2, n))
        if geo.status == MARGINAL or abs(geo.margin) <= 1e-6:
            continue
        assert classify_spectrum(spec, alpha).status == geo.status
        checked += 1

    # (d) block closed form vs dense solver on assembled tori up to 12 x 12
    for n, m in ((1, 1), (2, 2), (3, 2), (2, 5), (3, 4), (12, 1), (1, 12), (6, 2)):
        spec = BlockCirculantSpec(*rng.uniform(-1.0, 1.0, 3), n, m)
        closed = block_circulant_eigenvalues(spec)
        assert multiset_distance(closed, dense_eigenvalues(spec.matrix())) < 1e-8


def test_criterion_06_dynamics_consistency():
    """Simulator identities: order-1 reduction, linear agreement, symmetry."""
    # order 1 telescopes to the classical iteration, 1e-10 over 200 steps
    spec = CirculantSpec(0.2, -0.5, 0.1, 5)
    x0 = seeded_state(5, seed=1)
    traj = simulate_linear(1.0, spec, x0, 200)
    mat, x = spec.matrix(), x0.copy()
    worst = 0.0
    for t in range(200):
        x = mat @ x
        worst = max(worst, float(np.max(np.abs(traj.states[t + 1] - x))))
    assert worst < 1e-10

    # nonlinear run with linear site maps equals the linear simulator, 1e-12
    x0 = seeded_state(6, seed=9)
    lin = simulate_linear(0.6, CirculantSpec(0.05, -0.3, 0.15, 6), x0, 300)
    non = simulate_nonlinear(
        0.6, linear_map(0.05), linear_map(-0.3), linear_map(0.15), x0, 300
    )
    assert np.max(np.abs(lin.states - non.states)) < 1e-12

    # homogeneous initial states stay homogeneous to 1e-12
    f2 = circle_map(-1.2)
    traj = simulate_nonlinear(
        0.8, negated_map(f2), logistic_map(1.1), f2, np.full(7, 0.05), 400
    )
    spread = np.max(traj.states, axis=1) - np.min(traj.states, axis=1)
    assert np.max(spread) < 1e-12

    # exact equilibrium initialization stays fixed to 1e-10
    mu, eps = 1.5, 0.4
    f1 = scaled_map(1.0 - eps, logistic_map(mu))
    f02 = scaled_map(eps / 2.0, logistic_map(mu))
    eq = find_homogeneous_equilibrium(f02, f1, f02, guess=0.5)
    traj = simulate_nonlinear(0.7, f02, f1, f02, np.full(5, eq.x_star), 500)
    assert np.max(np.abs(traj.states - eq.x_star)) < 1e-10


def _empirical_agrees(analytic: str, empirical: str) -> bool:
    if analytic == STABLE:
        return empirical == DECAYING
    return empirical in (GROWING, DIVERGED)


def test_criterion_07_cross_validation():
    """>= 95% analytic/empirical agreement, zero contradictions, 50+ pts/mode."""
    horizon, window, per_mode = 2000, 100, 50
    results = {"agree": 0, "miss": 0, "contradict": 0}
    for mode_index, mode in enumerate(
        ("symmetric", "asymmetric", "logistic-cubic", "logistic-circle")
    ):
        rng = np.random.default_rng(1000 + mode_index)
        kept = 0
        attempts = 0
        while kept < per_mode:
            attempts += 1
            assert attempts < 5000, "sampling stalled"
            alpha = rng.uniform(0.3, 1.0)
            n = int(rng.integers(2, 13))
            p1, p2 = rng.uniform(-0.8, 0.8, 2)
            if mode == "symmetric":
                verdict = symmetric_region(alpha, n).classify(p1, p2)
                coupling = CirculantSpec(p1, p2, p1, n)
            elif mode == "asymmetric":
                verdict = asymmetric_region(alpha, n).classify(p1, p2)
                coupling = CirculantSpec(-p2, p1, p2, n)
            else:
                if mode == "logistic-cubic":
                    f0 = f2 = cubic_map(p2)
                else:
                    f2 = circle_map(p2)
                    f0 = negated_map(f2)
                f1 = logistic_map(p1)
                triple = linearize_at(f0, f1, f2, 0.0)
                spec = circulant_eigenvalues(CirculantSpec(*triple, n))
                verdict = classify_spectrum(spec, alpha)
            if verdict.status == MARGINAL or abs(verdict.margin) <= 0.05:
                continue
            kept += 1
            x0 = np.random.default_rng((7, mode_index, kept)).uniform(-0.01, 0.01, n)
            if mode in ("symmetric", "asymmetric"):
                traj = simulate_linear(alpha, coupling, x0, horizon)
            else:
                traj = simulate_nonlinear(alpha, f0, f1, f2, x0, horizon)
            empirical = classify_trajectory(traj, window)
            if _empirical_agrees(verdict.status, empirical):
                results["agree"] += 1
            elif empirical == INCONCLUSIVE:
                results["miss"] += 1
            else:
                results["contradict"] += 1
    total = sum(results.values())
    assert total == 4 * per_mode
    assert results["contradict"] == 0
    assert results["agree"] >= 0.95 * total


def test_criterion_08_thermodynamic_convergence_rate():
    """Odd lateral vertex approaches the limit like 1/N^2 (exponent 2 +- 0.1)."""
    alpha = 0.45
    limit = np.array(symmetric_region(alpha, 8).vertices[1])
    sizes = np.array([5.0, 9.0, 17.0, 33.0, 65.0])
    gaps = []
    for n in sizes.astype(int):
        vertex = np.array(symmetric_region(alpha, n).vertices[1])
        gaps.append(np.linalg.norm(vertex - limit))
    slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
    assert abs(slope + 2.0) < 0.1


def test_criterion_09_secondary_attractor():
    """Unstable-origin circle/logistic ring lands on 1 - 1/mu within 0.02."""
    mu, delta = 1.1, -1.2
    f2 = circle_map(delta)
    traj = simulate_nonlinear(
        0.8, negated_map(f2), logistic_map(mu), f2,
        seeded_state(7, positive=True), 5000,
    )
    assert not traj.diverged
    x_star = 1.0 - 1.0 / mu
    assert np.max(np.abs(traj.states[-1] - x_star)) < 0.02


def test_criterion_10_kernel_transform_identity():
    """Kernel partial sums at z = 2 reach 2^alpha within 1e-8."""
    for alpha in (0.25, 0.5, 0.9):
        w = kernel_weights(alpha, 200)
        k = np.arange(200, dtype=float)
        partial = float(np.sum(w * 0.5**k))
        assert abs(partial - 2.0**alpha) < 1e-8
