"""Linear rings and tori in Fourier mode space against the site-space step loop.

``simulate_linear`` solves a circulant coupling (ring or torus) mode by
mode, a block of rows at a time.  The same coupling given as an explicit
matrix takes the step loop, which is the oracle here: random rings,
tori, orders, initial states and horizons across block edges must give
the same trajectory.  Cells run together in one mode-space run must get
the bits of their runs alone.  At order 1 both paths must reproduce the
classical iteration.  On tori, the closed-form verdict and the simulated one must
not contradict each other.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fracml import dynamics  # noqa: E402
from fracml.dynamics import (  # noqa: E402
    _MODE_BLOCK, DECAYING, DIVERGED, GROWING, INCONCLUSIVE, classify_trajectory, seeded_state,
    simulate_linear,
)
from fracml.spectra import BlockCirculantSpec, CirculantSpec, circulant_eigenvalues  # noqa: E402
from fracml.stability import MARGINAL, STABLE, classify_spectrum, curve_margin  # noqa: E402

# fixed examples, no example database: every run checks the same inputs
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# 1, 2, and k blocks of rows give or take one, up to the far-field levels
# of a 1025-row run
HORIZONS = sorted({1, 2} | {k * _MODE_BLOCK + d for k in (1, 2, 4, 8, 16, 32) for d in (-1, 0, 1)})


@PROPERTY
@given(
    n=st.integers(min_value=1, max_value=16),
    alpha=st.floats(min_value=0.05, max_value=1.0),
    coupling=st.tuples(*[st.floats(min_value=-1.5, max_value=1.5)] * 3),
    symmetric=st.booleans(),
    horizon=st.sampled_from(HORIZONS),
    start=st.sampled_from(["random", "zeros", "constant"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mode_space_run_matches_step_loop(n, alpha, coupling, symmetric, horizon, start, seed):
    a0, a1, a2 = coupling
    spec = CirculantSpec(a2 if symmetric else a0, a1, a2, n)  # real or complex spectrum
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, n)
    if start == "zeros":
        x0[rng.random(n) < 0.5] = 0.0
    elif start == "constant":
        x0[:] = x0[0]
        # a homogeneous state excites mode 0 only, and each path rounds the
        # other modes away from 0 in its own way; an unstable one among
        # them would grow that rounding into different trajectories
        lam = circulant_eigenvalues(spec).eigenvalues[1:]
        assume(n == 1 or curve_margin(lam, alpha).max() < 0.0)
    fast = simulate_linear(alpha, spec, x0, horizon)
    slow = simulate_linear(alpha, spec.matrix(), x0, horizon)
    assert fast.diverged == slow.diverged
    assert fast.states.shape == slow.states.shape
    assert np.array_equal(fast.states[0], x0)
    peak = np.max(np.abs(slow.states))
    assert np.max(np.abs(fast.states - slow.states)) <= 1e-12 * peak


@PROPERTY
@given(
    n=st.integers(min_value=1, max_value=12),
    ring=st.booleans(),
    coupling=st.tuples(*[st.floats(min_value=-1.5, max_value=1.5)] * 3),
    horizon=st.sampled_from(HORIZONS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_order_one_is_the_classical_iteration(n, ring, coupling, horizon, seed):
    # at alpha = 1 every weight is 1 and X_{t+1} = X_0 + (A - I) sum_j X_j
    # telescopes to X_{t+1} = A X_t: rings take mode space, matrices the step loop
    rng = np.random.default_rng(seed)
    if ring:
        spec = CirculantSpec(*coupling, n)
        mat = spec.matrix()
    else:
        spec = mat = rng.normal(size=(n, n)) * (np.abs(coupling[0]) / np.sqrt(n))
    x0 = rng.uniform(-1.0, 1.0, n)
    traj = simulate_linear(1.0, spec, x0, horizon)
    classical = [x0]
    for _ in range(traj.horizon):
        classical.append(mat @ classical[-1])
    assert traj.horizon == horizon or traj.diverged
    peak = np.max(np.abs(traj.states))
    assert np.max(np.abs(traj.states - classical)) <= 1e-12 * peak


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    shape=st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6)),
    alpha=st.floats(min_value=0.05, max_value=1.0),
    coupling=st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3),
    horizon=st.sampled_from(HORIZONS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_torus_mode_space_run_matches_step_loop(shape, alpha, coupling, horizon, seed):
    spec = BlockCirculantSpec(*coupling, *shape)
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, math.prod(spec.shape))
    _assert_same_run(simulate_linear(alpha, spec, x0, horizon), simulate_linear(alpha, spec.matrix(), x0, horizon))


def test_diverging_torus_matches_step_loop():
    spec = BlockCirculantSpec(0.3, 0.2, -0.45, 4, 6)
    x0 = seeded_state(24, seed=5)
    fast = simulate_linear(0.7, spec, x0, 1000)
    assert fast.diverged and fast.horizon < 1000
    _assert_same_run(fast, simulate_linear(0.7, spec.matrix(), x0, 1000))


def _assert_same_run(fast, slow):
    assert fast.diverged == slow.diverged
    assert fast.states.shape == slow.states.shape
    peak = np.max(np.abs(slow.states))
    assert np.max(np.abs(fast.states - slow.states)) <= 1e-12 * peak


def test_torus_verdicts_do_not_contradict():
    # acceptance criterion 07 on tori: closed-form verdicts clear of the
    # boundary against the window rule on a mode-space run
    horizon, window = 2000, 100
    rng = np.random.default_rng(2024)
    counts = {STABLE: 0, "unstable": 0, INCONCLUSIVE: 0}
    while sum(counts.values()) < 100:
        alpha = rng.uniform(0.3, 1.0)
        spec = BlockCirculantSpec(*rng.uniform(-0.3, 0.3, 3), *rng.integers(2, 7, 2))
        verdict = classify_spectrum(circulant_eigenvalues(spec), alpha)
        if verdict.status == MARGINAL or abs(verdict.margin) <= 0.05:
            continue
        empirical = classify_trajectory(
            simulate_linear(alpha, spec, rng.uniform(-0.01, 0.01, math.prod(spec.shape)), horizon), window)
        if empirical == INCONCLUSIVE:
            counts[INCONCLUSIVE] += 1
            continue
        expected = (DECAYING,) if verdict.status == STABLE else (GROWING, DIVERGED)
        assert empirical in expected, (spec, alpha, verdict, empirical)
        counts[verdict.status] += 1
    assert counts[STABLE] >= 25 and counts["unstable"] >= 25, counts


# each cell: a coupling scale (decaying, diverging, or so huge that its
# resolvent overflows and it takes the step loop) and a ring or torus
_CELL_SCALES = st.sampled_from([0.3, 1.5, 1e10])


@PROPERTY
@given(
    n=st.integers(min_value=1, max_value=16),
    m=st.sampled_from([None, 1, 2, 3]),
    alpha=st.floats(min_value=0.05, max_value=1.0),
    horizon=st.sampled_from(HORIZONS),
    scales=st.lists(_CELL_SCALES, min_size=1, max_size=6),
    group_bytes=st.sampled_from([1, 1 << 23]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_cells_run_together_get_their_serial_trajectories(n, m, alpha, horizon, scales, group_bytes, seed):
    # one mode-space run for several cells (or one per cell at the smallest
    # group) gives each cell the bits of simulate_linear on it alone
    rng = np.random.default_rng(seed)
    shape = (n,) if m is None else (n, m)
    specs = [CirculantSpec(*rng.uniform(-s, s, 3), n) if m is None else BlockCirculantSpec(*rng.uniform(-s, s, 3), n, m)
             for s in scales]
    starts = [rng.uniform(-1.0, 1.0, math.prod(shape)) for _ in specs]
    t_max = dynamics.check_run(horizon, shape, modes=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_GROUP_BYTES", group_bytes)
        together = list(dynamics._linear_cells(alpha, shape, t_max, zip(specs, starts)))
    assert len(together) == len(specs)
    for spec, x0, traj in zip(specs, starts, together):
        alone = simulate_linear(alpha, spec, x0, horizon)
        assert traj.diverged == alone.diverged
        assert traj.states.shape == alone.states.shape
        assert traj.states.tobytes() == alone.states.tobytes()


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
def test_simulated_sweep_cells_are_their_serial_runs(monkeypatch, mode):
    # decaying, growing, diverging and huge-coupling cells in one sweep,
    # checked against a run of each cell on its own
    p1s, p2s = [0.02, -0.3, 6e9], [0.5, 0.999, 1.02, 1.4]
    if mode == "asymmetric":
        p1s, p2s = p2s, p1s
    runs = []
    real = dynamics._run_modes
    monkeypatch.setattr(dynamics, "_run_modes", lambda *args: runs.append(len(args[1])) or real(*args))
    cells = dynamics.sweep(mode, 0.6, 6, p1s, p2s, simulate=True, horizon=600, seed=9)
    assert runs == [12]  # one mode-space run for the whole grid
    monkeypatch.undo()
    for idx, cell in enumerate(cells):
        i, k = divmod(idx, len(p2s))
        p1, p2 = p1s[i], p2s[k]
        spec = CirculantSpec(p1, p2, p1, 6) if mode == "symmetric" else CirculantSpec(-p2, p1, p2, 6)
        alone = simulate_linear(0.6, spec, seeded_state(6, 0.0, 0.01, (9, i, k)), 600)
        assert cell.empirical == classify_trajectory(alone, 100)
    assert {c.empirical for c in cells} >= {DECAYING, DIVERGED}


def test_groups_of_cells_fit_the_group_bound(monkeypatch):
    per_cell = dynamics._run_bytes(400, (8,), True)
    monkeypatch.setattr(dynamics, "_GROUP_BYTES", 3 * per_cell + 1)
    runs = []
    real = dynamics._run_modes
    monkeypatch.setattr(dynamics, "_run_modes", lambda *args: runs.append(len(args[1])) or real(*args))
    grid = ("symmetric", 0.5, 8, [0.01, 0.02], [0.3, 0.5, 0.7, 1.1])
    cells = dynamics.sweep(*grid, simulate=True, horizon=400)
    assert runs == [3, 3, 2]
    monkeypatch.undo()
    assert cells == dynamics.sweep(*grid, simulate=True, horizon=400)
