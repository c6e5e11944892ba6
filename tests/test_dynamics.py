"""Tests for maps, equilibria, lattice simulators, and sweeps."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fracml import dynamics, spectra
from fracml.dynamics import (
    _NEAR,
    DECAYING,
    DEFAULT_AMPLITUDE,
    DIVERGENCE_CUTOFF,
    DIVERGED,
    GROWING,
    HORIZON_CAP,
    INCONCLUSIVE,
    MEMORY_CAP_BYTES,
    MapSpec,
    Trajectory,
    circle_map,
    classify_trajectory,
    cubic_map,
    eval_map,
    eval_map_derivative,
    find_homogeneous_equilibrium,
    linear_map,
    linearize_at,
    logistic_map,
    negated_map,
    scaled_map,
    seeded_state,
    simulate_linear,
    simulate_nonlinear,
    sweep,
)
from fracml.fractional import kernel_weights, memory_convolution
from fracml.spectra import SITE_CAP, Circulant, CirculantSpec
from fracml.stability import asymmetric_region, symmetric_region


def test_map_values():
    x = np.array([-0.5, 0.0, 0.5])
    assert np.allclose(eval_map(linear_map(2.0), x), [-1.0, 0.0, 1.0])
    assert np.allclose(eval_map(logistic_map(2.0), x), [-1.5, 0.0, 0.5])
    assert np.allclose(eval_map(cubic_map(0.5), x), [-0.25, 0.0, 0.25])
    assert eval_map(circle_map(2.0), 0.0) == 0.0
    assert eval_map(scaled_map(0.5, logistic_map(2.0)), 0.5) == 0.25
    assert eval_map(negated_map(linear_map(3.0)), 1.0) == -3.0


def test_map_derivatives_match_central_difference():
    h = 1e-6
    maps = [
        linear_map(1.7),
        logistic_map(2.3),
        cubic_map(0.8),
        circle_map(1.2),
        scaled_map(-0.4, logistic_map(1.5)),
        negated_map(circle_map(0.9)),
        scaled_map(2.0, negated_map(cubic_map(0.3))),
    ]
    for f in maps:
        for x in (-0.7, 0.0, 0.41):
            numeric = (eval_map(f, x + h) - eval_map(f, x - h)) / (2.0 * h)
            assert eval_map_derivative(f, x) == pytest.approx(numeric, abs=1e-8)


def test_map_derivative_broadcasts():
    d = eval_map_derivative(linear_map(0.3), np.zeros(4))
    assert np.array_equal(d, np.full(4, 0.3))


def test_map_spec_validation():
    with pytest.raises(ValueError):
        MapSpec("quartic", 1.0)
    with pytest.raises(ValueError):
        MapSpec("scaled", 2.0)  # missing base


def test_equilibrium_zero_for_linear_ring():
    f = scaled_map(0.3, linear_map(1.0))
    eq = find_homogeneous_equilibrium(f, linear_map(0.2), f, guess=0.3)
    assert eq.x_star == pytest.approx(0.0, abs=1e-12)
    assert abs(eq.residual) < 1e-12


def test_equilibrium_of_coupled_logistic_ring():
    # diffusive logistic coupling shares the uncoupled fixed point 1 - 1/mu
    mu, eps = 1.5, 0.4
    f1 = scaled_map(1.0 - eps, logistic_map(mu))
    f02 = scaled_map(eps / 2.0, logistic_map(mu))
    eq = find_homogeneous_equilibrium(f02, f1, f02, guess=0.5)
    assert eq.x_star == pytest.approx(1.0 - 1.0 / mu, abs=1e-12)


def test_equilibrium_newton_stall_is_reported():
    # g(x) = 4x^3 - 3x has g'(0.5) = 0 with g(0.5) != 0
    dead = scaled_map(0.0, linear_map(1.0))
    with pytest.raises(RuntimeError):
        find_homogeneous_equilibrium(dead, cubic_map(2.0), dead, guess=0.5)


def test_linearize_at_triples():
    mu, delta = 1.1, -1.2
    f2 = circle_map(delta)
    a0, a1, a2 = linearize_at(negated_map(f2), logistic_map(mu), f2, 0.0)
    assert a0 == pytest.approx(-(1.0 + delta))
    assert a1 == pytest.approx(mu)
    assert a2 == pytest.approx(1.0 + delta)
    b0, b1, b2 = linearize_at(cubic_map(0.3), logistic_map(2.0), cubic_map(0.3), 0.0)
    assert (b0, b1, b2) == pytest.approx((-0.3, 2.0, -0.3))


def test_seeded_state_reproducible():
    a = seeded_state(6, seed=5)
    b = seeded_state(6, seed=5)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) <= 0.01
    c = seeded_state(6, base=0.5, amplitude=0.1, seed=5, positive=True)
    assert np.all(c > 0.5) and np.all(c <= 0.6)


@pytest.mark.parametrize("positive", [False, True])
@pytest.mark.parametrize("amplitude", [math.nan, math.inf, 0.0, -0.01])
def test_seeded_state_refuses_an_amplitude_not_positive_and_finite(amplitude, positive):
    # nan and inf once raised OverflowError, or drew nan/inf states with positive=True
    with pytest.raises(ValueError, match="amplitude must be positive and finite"):
        seeded_state(3, amplitude=amplitude, positive=positive)


def test_simulate_linear_alpha_one_is_matrix_power():
    spec = CirculantSpec(0.2, -0.5, 0.1, 5)
    x0 = seeded_state(5, seed=1)
    traj = simulate_linear(1.0, spec, x0, 200)
    mat = spec.matrix()
    x = x0.copy()
    worst = 0.0
    for t in range(200):
        x = mat @ x
        worst = max(worst, float(np.max(np.abs(traj.states[t + 1] - x))))
    assert worst < 1e-10


def test_simulate_linear_accepts_plain_matrix():
    mat = np.array([[0.5, 0.1], [0.0, 0.4]])
    t1 = simulate_linear(0.7, mat, np.array([0.3, -0.2]), 50)
    assert t1.horizon == 50 and t1.sites == 2 and not t1.diverged


def test_simulate_linear_shape_checks():
    with pytest.raises(ValueError):
        simulate_linear(0.5, np.zeros((2, 3)), np.zeros(2), 10)
    with pytest.raises(ValueError):
        simulate_linear(0.5, np.eye(3), np.zeros(2), 10)
    with pytest.raises(ValueError):
        simulate_linear(0.5, np.eye(2), np.zeros(2), 0)
    with pytest.raises(ValueError):
        simulate_linear(0.5, np.eye(2), np.zeros(2), HORIZON_CAP + 1)


def test_simulate_linear_divergence_truncates():
    spec = CirculantSpec(0.0, 4.0, 0.0, 3)  # strongly expanding
    traj = simulate_linear(0.9, spec, np.full(3, 1.0), 2000, cutoff=1e6)
    assert traj.diverged
    assert traj.horizon < 2000
    assert np.max(np.abs(traj.states[-1])) > 1e6  # cutoff row is kept
    assert np.all(np.isfinite(traj.states))


def _direct_linear(alpha, mat, x0, horizon, cutoff=DIVERGENCE_CUTOFF):
    """Oracle: X_{t+1} = X_0 + (A - I) times the full-history sum, O(T^2 N)."""
    w = kernel_weights(alpha, horizon + 1)
    shifted = mat - np.eye(len(x0))
    hist = np.zeros((horizon + 1, len(x0)))
    hist[0] = x0
    for t in range(horizon):
        x = x0 + shifted @ memory_convolution(w, hist, t)
        if not np.all(np.isfinite(x)):
            return hist[: t + 1], True
        hist[t + 1] = x
        if np.max(np.abs(x)) > cutoff:
            return hist[: t + 2], True
    return hist, False


def _direct_nonlinear(alpha, f0, f1, f2, x0, horizon, cutoff=DIVERGENCE_CUTOFF):
    """Oracle: X_{t+1} = X_0 + the full-history sum of F(X_j) - X_j."""
    w = kernel_weights(alpha, horizon + 1)
    hist = np.zeros((horizon + 1, len(x0)))
    drift = np.zeros_like(hist)
    hist[0] = x0
    for t in range(horizon):
        x = hist[t]
        with np.errstate(all="ignore"):
            drift[t] = eval_map(f0, np.roll(x, 1)) + eval_map(f1, x) + eval_map(f2, np.roll(x, -1)) - x
            x_next = x0 + memory_convolution(w, drift, t)
        if not np.all(np.isfinite(x_next)):
            return hist[: t + 1], True
        hist[t + 1] = x_next
        if np.max(np.abs(x_next)) > cutoff:
            return hist[: t + 2], True
    return hist, False


def _assert_matches_oracle(traj, oracle):
    states, diverged = oracle
    assert traj.diverged == diverged
    assert traj.states.shape == states.shape
    peak = np.max(np.abs(states))
    assert np.max(np.abs(traj.states - states)) <= 1e-12 * peak


_BLOCK_EDGES = [_NEAR - 1, _NEAR, _NEAR + 1] + [
    (2**k) * _NEAR + d for k in range(1, 6) for d in (-1, 1)
]


@pytest.mark.parametrize("horizon", _BLOCK_EDGES)
def test_simulate_linear_matches_direct_sum(horizon):
    spec = CirculantSpec(0.05, 0.2, -0.08, 3)
    x0 = seeded_state(3, seed=1)
    oracle = _direct_linear(0.6, spec.matrix(), x0, horizon)
    _assert_matches_oracle(simulate_linear(0.6, spec, x0, horizon), oracle)


@pytest.mark.parametrize("horizon", _BLOCK_EDGES)
def test_simulate_nonlinear_matches_direct_sum(horizon):
    side, site = cubic_map(0.03), logistic_map(0.5)
    x0 = seeded_state(4, seed=2)
    oracle = _direct_nonlinear(0.55, side, site, side, x0, horizon)
    _assert_matches_oracle(simulate_nonlinear(0.55, side, site, side, x0, horizon), oracle)


def test_simulate_linear_explicit_matrix_matches_direct_sum():
    mat = np.random.default_rng(5).normal(size=(5, 5)) * 0.2
    x0 = seeded_state(5, seed=5)
    for horizon in (2 * _NEAR + 1, 1500):
        oracle = _direct_linear(0.7, mat, x0, horizon)
        _assert_matches_oracle(simulate_linear(0.7, mat, x0, horizon), oracle)


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_rings_match_direct_sum(n):
    # left and right neighbor coincide: their weights add
    spec = CirculantSpec(0.1, 0.3, 0.25, n)
    x0 = seeded_state(n, seed=n)
    _assert_matches_oracle(
        simulate_linear(0.7, spec, x0, 1000), _direct_linear(0.7, spec.matrix(), x0, 1000)
    )
    f0, f1, f2 = linear_map(0.1), logistic_map(0.3), cubic_map(0.25)
    _assert_matches_oracle(
        simulate_nonlinear(0.7, f0, f1, f2, x0, 1000),
        _direct_nonlinear(0.7, f0, f1, f2, x0, 1000),
    )


def test_diverging_run_matches_direct_sum():
    # exponential growth to the cutoff near step 2500: FFT rounding of the
    # large late blocks must not move the step at which the run is cut
    alpha, a2 = 0.4, 0.015
    z = math.exp(-23.0 / 2500.0)
    eps = (1.0 - z) ** alpha / z  # leading mode grows by e^(23/2500) per step
    spec = CirculantSpec(a2, 1.0 + eps - 2.0 * a2, a2, 5)
    x0 = seeded_state(5, seed=3)
    traj = simulate_linear(alpha, spec, x0, 5000)
    oracle = _direct_linear(alpha, spec.matrix(), x0, 5000)
    _assert_matches_oracle(traj, oracle)
    assert traj.diverged and 2000 < traj.horizon < 3000


def test_non_finite_run_matches_direct_sum():
    # no cutoff: the cubic overflows and the run ends at the last finite row
    f0, f1, f2 = cubic_map(0.1), scaled_map(3.0, cubic_map(0.0)), cubic_map(0.1)
    x0 = np.full(4, 2.0)
    traj = simulate_nonlinear(0.9, f0, f1, f2, x0, 500, cutoff=math.inf)
    _assert_matches_oracle(traj, _direct_nonlinear(0.9, f0, f1, f2, x0, 500, cutoff=math.inf))
    assert traj.diverged and np.all(np.isfinite(traj.states))


def test_infinite_cutoff_linear_run_matches_direct_sum():
    # no cutoff: every mode grows about a thousandfold a step, so the last
    # finite row sits far enough below the overflow for both paths to agree
    spec = CirculantSpec(0.5, 1000.0, -0.25, 3)
    x0 = seeded_state(3, seed=4)
    traj = simulate_linear(0.9, spec, x0, 400, cutoff=math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = _direct_linear(0.9, spec.matrix(), x0, 400, cutoff=math.inf)
    _assert_matches_oracle(traj, oracle)
    assert traj.diverged and 90 < traj.horizon < 120
    assert np.all(np.isfinite(traj.states))


def test_infinite_cutoff_slow_growth_ends_no_later_than_direct_sum():
    # no cutoff, growth about 1.6x a step: FFT products and block sums near
    # the float maximum can overflow a few rows before the direct sum does,
    # and the run then ends at its own first non-finite row
    spec = CirculantSpec(-0.1085, 0.8384, -0.7972, 16)
    x0 = seeded_state(16, amplitude=1.0, seed=1)
    traj = simulate_linear(0.786, spec, x0, 2000, cutoff=math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        states, diverged = _direct_linear(0.786, spec.matrix(), x0, 2000, cutoff=math.inf)
    assert traj.diverged and diverged
    assert np.all(np.isfinite(traj.states[-1]))
    assert len(traj.states) <= len(states)
    peak = np.max(np.abs(traj.states))
    assert np.max(np.abs(traj.states - states[:len(traj.states)])) <= 1e-12 * peak


def test_huge_coupling_fixed_point_is_kept():
    # modes 1 and 3 have |lambda - 1| = 2e10: their resolvent over a block
    # of 32 rows overflows, and inf * 0 must not reach them while they
    # are exactly 0
    spec = CirculantSpec(-1e10, 1.0, 1e10, 4)
    traj = simulate_linear(0.6, spec, np.ones(4), 600)
    assert not traj.diverged and traj.horizon == 600
    assert np.array_equal(traj.states, np.ones((601, 4)))
    _assert_matches_oracle(traj, _direct_linear(0.6, spec.matrix(), np.ones(4), 600))


def test_memory_cap_rejects_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the memory check")

    monkeypatch.setattr(dynamics, "kernel_weights", refuse)
    monkeypatch.setattr(Circulant, "matrix", refuse)
    n, horizon = 10**6, 10**4
    assert 2 * 8 * (horizon + 1) * n > MEMORY_CAP_BYTES
    x0 = np.zeros(n)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MiB"):
            simulate_linear(0.5, CirculantSpec(0.1, 0.2, 0.1, n), x0, horizon)
        with pytest.raises(ValueError, match="MiB"):
            simulate_nonlinear(0.5, linear_map(0.1), linear_map(0.2), linear_map(0.1), x0, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x0.nbytes  # the copy of x0, no history


def test_nonlinear_with_linear_maps_matches_linear_route():
    # two independent simulators, same trajectory; stable coupling keeps
    # the comparison free of divergence-amplified roundoff
    a0, a1, a2, n = 0.05, -0.3, 0.15, 6
    x0 = seeded_state(n, seed=9)
    lin = simulate_linear(0.6, CirculantSpec(a0, a1, a2, n), x0, 300)
    non = simulate_nonlinear(
        0.6, linear_map(a0), linear_map(a1), linear_map(a2), x0, 300
    )
    assert np.max(np.abs(lin.states - non.states)) < 1e-12


def test_nonlinear_preserves_homogeneity():
    f2 = circle_map(-1.2)
    traj = simulate_nonlinear(
        0.8, negated_map(f2), logistic_map(1.1), f2, np.full(7, 0.05), 400
    )
    spread = np.max(traj.states, axis=1) - np.min(traj.states, axis=1)
    assert np.max(spread) < 1e-12


def test_nonlinear_equilibrium_stays_fixed():
    mu, eps = 1.5, 0.4
    f1 = scaled_map(1.0 - eps, logistic_map(mu))
    f02 = scaled_map(eps / 2.0, logistic_map(mu))
    eq = find_homogeneous_equilibrium(f02, f1, f02, guess=0.5)
    x0 = np.full(5, eq.x_star)
    traj = simulate_nonlinear(0.7, f02, f1, f02, x0, 500)
    assert np.max(np.abs(traj.states - eq.x_star)) < 1e-10


def test_nonlinear_divergence_sets_flag():
    traj = simulate_nonlinear(
        0.9, cubic_map(0.1), scaled_map(3.0, cubic_map(0.0)), cubic_map(0.1),
        np.full(4, 2.0), 500,
    )
    assert traj.diverged
    assert traj.horizon < 500


def test_trajectory_is_read_only():
    traj = simulate_linear(0.5, np.eye(2) * 0.5, np.ones(2), 8)
    with pytest.raises(ValueError):
        traj.states[0, 0] = 9.9


def test_classify_trajectory_basic():
    decay = Trajectory(np.linspace(1.0, 0.0, 401)[:, None] ** 2, 0.5)
    assert classify_trajectory(decay, 100) == DECAYING
    grow = Trajectory(np.geomspace(0.01, 100.0, 401)[:, None], 0.5)
    assert classify_trajectory(grow, 100) == GROWING
    flat = Trajectory(np.full((401, 1), 0.3), 0.5)
    assert classify_trajectory(flat, 100) == INCONCLUSIVE
    assert classify_trajectory(Trajectory(np.zeros((2, 1)), 0.5, diverged=True)) == DIVERGED


def test_classify_trajectory_nonzero_reference():
    states = 0.7 + np.linspace(0.2, 0.0, 401)[:, None] ** 3
    assert classify_trajectory(Trajectory(states, 0.5), 100, reference=0.7) == DECAYING


def test_classify_trajectory_rejects_short_runs():
    with pytest.raises(ValueError):
        classify_trajectory(Trajectory(np.zeros((100, 1)), 0.5), window=100)
    with pytest.raises(ValueError):
        classify_trajectory(Trajectory(np.zeros((401, 1)), 0.5), window=0)


def test_classified_stable_and_unstable_runs():
    stable = simulate_linear(0.8, CirculantSpec(0.1, -0.45, 0.1, 4), seeded_state(4), 2000)
    assert classify_trajectory(stable, 100) == DECAYING
    unstable = simulate_linear(0.4, CirculantSpec(0.2, -0.65, 0.1, 4), seeded_state(4), 2000)
    assert classify_trajectory(unstable, 100) in (GROWING, DIVERGED)


def test_sweep_analytic_only():
    cells = sweep("symmetric", 0.4, 6, [-0.1, 0.0], [0.3, 0.9, 1.5])
    assert len(cells) == 6
    # row-major: p1 outer, p2 inner
    assert [c.p1 for c in cells[:3]] == [-0.1] * 3
    assert [c.p2 for c in cells[:3]] == [0.3, 0.9, 1.5]
    assert all(c.empirical is None for c in cells)
    inside = [c for c in cells if c.p1 == 0.0 and c.p2 == 0.3]
    assert inside[0].analytic == "stable" and inside[0].margin < 0.0
    outside = [c for c in cells if c.p2 == 1.5]
    assert all(c.analytic == "unstable" for c in outside)
    for mode in ("symmetric", "asymmetric", "logistic-cubic", "logistic-circle"):
        assert sweep(mode, 0.4, 6, [], [0.1]) == []


def test_sweep_modes_match_direct_classification():
    cells = sweep("asymmetric", 0.3, 6, [-0.1, -0.3], [-0.22, 0.5])
    region = asymmetric_region(0.3, 6)
    for c in cells:
        assert c.analytic == region.classify(c.p1, c.p2).status


def test_sweep_simulated_is_deterministic_and_scheduling_free():
    kwargs = dict(simulate=True, horizon=600, window=100, seed=3)
    p1s, p2s = [0.05, 0.3], [-0.1, 0.4]
    a = sweep("logistic-cubic", 0.6, 4, p1s, p2s, **kwargs)
    assert a == sweep("logistic-cubic", 0.6, 4, p1s, p2s, **kwargs)
    # each cell is the run a caller gets on its own from the cell's seed
    for idx, cell in enumerate(a):
        i, k = divmod(idx, len(p2s))
        x0 = np.random.default_rng((3, i, k)).uniform(-DEFAULT_AMPLITUDE, DEFAULT_AMPLITUDE, 4)
        side = cubic_map(p2s[k])
        traj = simulate_nonlinear(0.6, side, logistic_map(p1s[i]), side, x0, 600)
        assert (cell.p1, cell.p2) == (p1s[i], p2s[k])
        assert cell.empirical == classify_trajectory(traj, 100)


def test_sweep_empirical_agrees_on_clear_cells():
    cells = sweep(
        "symmetric", 0.5, 6, [-0.05, 0.0], [0.2, 1.6],
        simulate=True, horizon=2000, window=100, seed=11,
    )
    for c in cells:
        if c.analytic == "stable":
            assert c.empirical == DECAYING
        else:
            assert c.empirical in (GROWING, DIVERGED)


_RINGS = {"symmetric": symmetric_region, "logistic-cubic": symmetric_region,
          "asymmetric": asymmetric_region, "logistic-circle": asymmetric_region}


def _ring_margin(mode, alpha, n, p1, p2):
    """The region margin of one cell's ring (a0, a1, a2), read the way its family reads it."""
    if mode in ("symmetric", "asymmetric"):
        a0, a1, a2 = (p1, p2, p1) if mode == "symmetric" else (-p2, p1, p2)
    else:
        a0, a1, a2 = linearize_at(*dynamics._sweep_maps(mode, p1, p2), 0.0)
    point = (a2, a1) if _RINGS[mode] is symmetric_region else (a1, a2)
    return _RINGS[mode](alpha, n).signed_margin(*point)


@pytest.mark.parametrize("mode", ["logistic-cubic", "logistic-circle"])
def test_logistic_sweep_margins_are_the_region_margins_of_the_linearized_ring(mode):
    # logistic-cubic linearizes to the symmetric ring (-delta, mu, -delta),
    # logistic-circle to the antisymmetric ring (-(1 + delta), mu, 1 + delta)
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 8, 13) if mode == "logistic-circle" else (2, 3, 8, 13):
        p1s = rng.uniform(-1.0, 2.0, 4).tolist() + [0.0, -0.0]
        p2s = rng.uniform(-1.5, 1.5, 3).tolist() + [0.0, -0.0, -1.0]
        alpha = rng.uniform(0.1, 1.0)
        want = [float(_ring_margin(mode, alpha, n, p1, p2)) for p1 in p1s for p2 in p2s]
        got = [c.margin for c in sweep(mode, alpha, n, p1s, p2s)]
        assert np.array(got).tobytes() == np.array(want).tobytes(), n


def test_logistic_cubic_sweep_refuses_a_single_site_as_symmetric_sweeps_do():
    for mode in ("symmetric", "logistic-cubic"):
        for simulate in (False, True):
            with pytest.raises(ValueError, match="n = 1 is a single uncoupled site"):
                sweep(mode, 0.5, 1, [0.1], [0.2], simulate=simulate, horizon=400)


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric", "logistic-cubic", "logistic-circle"])
def test_sweep_refuses_a_ring_without_sites(mode):
    for n in (0, -3):
        with pytest.raises(ValueError, match="lattice sides must be positive integers"):
            sweep(mode, 0.5, n, [0.1], [0.2])


def test_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        sweep("diagonal", 0.5, 4, [0.0], [0.0])
    with pytest.raises(ValueError):
        sweep("symmetric", 0.5, 4, np.zeros(101), np.zeros(101), simulate=True)
    for amplitude in (0.0, -0.01):
        with pytest.raises(ValueError, match="amplitude"):
            sweep("symmetric", 0.5, 4, [0.0], [0.0], simulate=True, amplitude=amplitude)


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric", "logistic-cubic", "logistic-circle"])
def test_simulated_sweep_refuses_oversized_rings_before_any_margin(monkeypatch, mode):
    # the n * cells cap bounds the runs of a simulated sweep, which step every site
    def refuse(*args, **kwargs):
        raise AssertionError("margins started before the size check")

    for name in ("symmetric_region", "asymmetric_region", "curve_margin"):
        monkeypatch.setattr(dynamics.stability, name, refuse)
    message = f"cap of {dynamics.SWEEP_MODE_CAP} modes"
    with pytest.raises(ValueError, match=message):
        sweep(mode, 0.5, 10**12, [0.1], [0.2], simulate=True)
    n = dynamics.SWEEP_MODE_CAP // 10**3
    with pytest.raises(ValueError, match=message):
        sweep(mode, 0.5, n, np.zeros(10), np.zeros(101), simulate=True)


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric", "logistic-cubic", "logistic-circle"])
def test_analytic_sweeps_take_any_ring_size(monkeypatch, mode):
    # an analytic margin reads only the region of the cell's ring: no mode
    # table, no cap on n or on n * cells
    def refuse(*args, **kwargs):
        raise AssertionError("an analytic sweep built a mode table")

    monkeypatch.setattr(spectra, "_mode_table", refuse)
    n, p1s, p2s = 10**12, [0.1, 0.3], [0.2, -0.0]
    cells = sweep(mode, 0.5, n, p1s, p2s)
    assert [c.margin for c in cells] == [float(_ring_margin(mode, 0.5, n, p1, p2)) for p1 in p1s for p2 in p2s]


def test_symmetric_sweep_decides_a_ring_above_the_site_cap_without_a_mode_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a symmetric sweep built a mode table")

    monkeypatch.setattr(spectra, "_mode_table", refuse)
    (cell,) = sweep("symmetric", 0.5, SITE_CAP + 1, [0.1], [0.2])
    assert cell.analytic == "stable"
    assert cell.margin == symmetric_region(0.5, SITE_CAP + 1).signed_margin(0.1, 0.2)


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric", "logistic-cubic", "logistic-circle"])
@pytest.mark.parametrize("n, opts, message", [
    (4, dict(horizon=100_000, window=30_000), "horizon 100000 too short for window 30000; need >= 120000"),
    (4, dict(horizon=399), "horizon 399 too short for window 100; need >= 400"),
    (4, dict(window=0), "window must be >= 1"),
    (4, dict(horizon=0), "horizon must be >= 1"),
    (4, dict(horizon=HORIZON_CAP + 1), f"exceeds the cap of {HORIZON_CAP} steps"),
    (10**6, {}, "MiB, above the cap"),
    (4, dict(amplitude=0.0), "amplitude must be positive and finite"),
    (4, dict(amplitude=-0.01), "amplitude must be positive and finite"),
    (4, dict(amplitude=math.nan), "amplitude must be positive and finite"),
    (4, dict(amplitude=math.inf), "amplitude must be positive and finite"),
], ids=["window-too-long", "horizon-too-short", "window-0", "horizon-0", "horizon-cap",
        "memory-cap", "amplitude-0", "amplitude-negative", "amplitude-nan", "amplitude-inf"])
def test_simulated_sweep_checks_its_run_settings_before_any_work(monkeypatch, mode, n, opts, message):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the run settings were checked")

    for name in ("simulate_linear", "simulate_nonlinear", "_linear_cells"):
        monkeypatch.setattr(dynamics, name, refuse)
    for name in ("symmetric_region", "asymmetric_region", "curve_margin"):
        monkeypatch.setattr(dynamics.stability, name, refuse)
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep(mode, 0.5, n, [0.1], [0.2], simulate=True, **opts)
    monkeypatch.undo()
    if n == 4:  # an analytic sweep runs nothing, so the settings do not matter
        assert len(sweep(mode, 0.5, n, [0.1], [0.2], **opts)) == 1


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric", "logistic-cubic", "logistic-circle"])
@pytest.mark.parametrize("simulate", [False, True])
def test_sweep_refuses_nan_parameters(mode, simulate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p1, p2 in (([0.1, math.nan], [0.2]), ([0.1], [0.2, math.nan])):
            with pytest.raises(ValueError, match="NaN"):
                sweep(mode, 0.5, 6, p1, p2, simulate=simulate, horizon=400)
