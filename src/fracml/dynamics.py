"""Direct simulation of fractional coupled map lattices.

Linear and nonlinear lattice iterations with the full power-law memory
sum, the site-map library with closed-form derivatives, homogeneous
equilibrium solving, linearization, empirical trajectory verdicts, and
two-parameter stability sweeps.

Every step of a simulation depends on the entire history (the kernel
weight depends on t - j), so a horizon-T run stores O(T * N) states.
It does not need O(T^2 * N) time: older history is added in blocks by
FFT products (blocked online convolution, after Hairer, Lubich &
Schlichte 1985), which costs O(T log^2 T * N).  A circulant coupling
(``spectra.Circulant``: a ring, a torus) is diagonalized by the discrete
Fourier basis, so ``simulate_linear`` runs each of its modes l as the
scalar map
y_{t+1} = y_0 + (lambda_l - 1) sum_j w[t-j] y_j and solves it a block
of rows at a time with the block's resolvent (``_run_modes``).
Nonlinear runs and explicit coupling matrices step through time and
sum recent history directly (``_run``); on a circulant coupling, that
loop is the mode-space run's test oracle.  The direct sum stays in
``fractional.memory_convolution``.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import stability
from .fractional import kernel_weights, memory_convolution, validate_order
from .spectra import Circulant, CirculantSpec, circulant_eigenvalues

__all__ = [
    "HORIZON_CAP",
    "MEMORY_CAP_BYTES",
    "DIVERGENCE_CUTOFF",
    "DEFAULT_SEED",
    "DEFAULT_AMPLITUDE",
    "MapSpec",
    "MAP_KINDS",
    "linear_map",
    "logistic_map",
    "cubic_map",
    "circle_map",
    "scaled_map",
    "negated_map",
    "eval_map",
    "eval_map_derivative",
    "Equilibrium",
    "find_homogeneous_equilibrium",
    "linearize_at",
    "Trajectory",
    "seeded_state",
    "check_run",
    "simulate_linear",
    "simulate_nonlinear",
    "classify_trajectory",
    "SweepCell",
    "sweep",
]

HORIZON_CAP = 100_000
MEMORY_CAP_BYTES = 1 << 30  # state and drift arrays of one run
DIVERGENCE_CUTOFF = 1e8
DEFAULT_SEED = 42
DEFAULT_AMPLITUDE = 0.01

_NEAR = 128  # steps per block of the memory sum that is summed directly
_MODE_BLOCK = 32  # rows per block a mode-space run solves at once
_FFT_BLOCK = 1 << 15  # values per FFT product; keeps its temporaries small beside the history
_DOUBLE_MAX = sys.float_info.max

DECAYING = "decaying"
GROWING = "growing"
INCONCLUSIVE = "inconclusive"
DIVERGED = "diverged"


@dataclass(frozen=True)
class MapSpec:
    """One site map.  ``kind``, a key of MAP_KINDS, selects the formula, ``param`` its knob.

    kind      formula            param meaning
    --------  -----------------  -------------
    linear    a * x              a
    logistic  mu * x * (1 - x)   mu
    cubic     4 x^3 - delta * x  delta
    circle    x + delta * sin x  delta
    scaled    c * base(x)        c      (negated_map: c = -1.0, exact negation)
    """

    kind: str
    param: float = 0.0
    base: "MapSpec | None" = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.kind == "scaled" and self.base is None:
            raise ValueError(f"map kind {self.kind!r} needs a base map")
        object.__setattr__(self, "param", float(self.param))


# kind -> (config key of its param, map f(spec, x), derivative f'(spec, x));
# "scaled" is the one kind that wraps another map
MAP_KINDS = {
    "linear": ("a", lambda f, x: f.param * x, lambda f, x: f.param + 0.0 * x),
    "logistic": ("mu", lambda f, x: f.param * x * (1.0 - x), lambda f, x: f.param * (1.0 - 2.0 * x)),
    "cubic": ("delta", lambda f, x: 4.0 * x**3 - f.param * x, lambda f, x: 12.0 * x**2 - f.param),
    "circle": ("delta", lambda f, x: x + f.param * np.sin(x), lambda f, x: 1.0 + f.param * np.cos(x)),
    "scaled": ("c", lambda f, x: f.param * eval_map(f.base, x),
               lambda f, x: f.param * eval_map_derivative(f.base, x)),
}


def linear_map(a: float) -> MapSpec:
    return MapSpec("linear", a)


def logistic_map(mu: float) -> MapSpec:
    return MapSpec("logistic", mu)


def cubic_map(delta: float) -> MapSpec:
    return MapSpec("cubic", delta)


def circle_map(delta: float) -> MapSpec:
    return MapSpec("circle", delta)


def scaled_map(c: float, base: MapSpec) -> MapSpec:
    return MapSpec("scaled", c, base)


def negated_map(base: MapSpec) -> MapSpec:
    return MapSpec("scaled", -1.0, base)


def eval_map(f: MapSpec, x):
    """Map value at ``x`` (scalar or array)."""
    return MAP_KINDS[f.kind][1](f, x)


def eval_map_derivative(f: MapSpec, x):
    """Closed-form derivative at ``x`` (scalar or array)."""
    return MAP_KINDS[f.kind][2](f, x)


@dataclass(frozen=True)
class Equilibrium:
    """Homogeneous equilibrium value and its defect |f0+f1+f2-id|."""

    x_star: float
    residual: float


def find_homogeneous_equilibrium(
    f0: MapSpec, f1: MapSpec, f2: MapSpec, guess: float = 0.0
) -> Equilibrium:
    """Newton iteration on g(x) = f0(x) + f1(x) + f2(x) - x.

    Uses the closed-form derivatives; at most 100 steps, stopping once
    |g| <= 1e-12.  Raises with the last iterate on stall or
    non-convergence rather than returning a bad point.
    """
    x = float(guess)
    for _ in range(100):
        g = float(eval_map(f0, x) + eval_map(f1, x) + eval_map(f2, x)) - x
        if abs(g) <= 1e-12:
            return Equilibrium(x, abs(g))
        dg = (
            float(
                eval_map_derivative(f0, x)
                + eval_map_derivative(f1, x)
                + eval_map_derivative(f2, x)
            )
            - 1.0
        )
        if dg == 0.0 or not math.isfinite(dg) or not math.isfinite(g):
            raise RuntimeError(f"Newton stalled at x = {x!r} (g = {g!r}, g' = {dg!r})")
        x -= g / dg
    raise RuntimeError(f"no equilibrium within 100 Newton steps; last iterate {x!r}")


def linearize_at(f0: MapSpec, f1: MapSpec, f2: MapSpec, x_star: float):
    """Coupling triple (a0, a1, a2) = (f0'(x*), f1'(x*), f2'(x*))."""
    return (
        float(eval_map_derivative(f0, x_star)),
        float(eval_map_derivative(f1, x_star)),
        float(eval_map_derivative(f2, x_star)),
    )


@dataclass(frozen=True)
class Trajectory:
    """Lattice history X_0 .. X_T, one row per step.

    ``diverged`` marks a run truncated by the divergence cutoff; the
    stored rows end at the last computed state.
    """

    states: np.ndarray
    alpha: float
    diverged: bool = False

    def __post_init__(self):
        self.states.flags.writeable = False

    @property
    def horizon(self) -> int:
        return len(self.states) - 1

    @property
    def sites(self) -> int:
        return self.states.shape[1]


def seeded_state(
    n: int,
    base: float = 0.0,
    amplitude: float = DEFAULT_AMPLITUDE,
    seed: int = DEFAULT_SEED,
    positive: bool = False,
) -> np.ndarray:
    """Reproducible initial state: uniform perturbation about ``base``.

    Centered in [-amplitude, amplitude] by default; ``positive=True``
    draws from (0, amplitude] instead, for basins that only open on one
    side.  ``seed`` is an int or a tuple of ints, as default_rng takes.
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    rng = np.random.default_rng(seed)
    if positive:
        return base + amplitude * (1.0 - rng.random(int(n)))
    return base + rng.uniform(-amplitude, amplitude, int(n))


def _mode_block(t_max: int) -> int:
    # the largest power of two B with B^2 <= 2 (T+1): a short run's
    # resolvent takes at most twice the memory of its modes
    return min(_MODE_BLOCK, 1 << ((2 * t_max + 2).bit_length() - 1) // 2)


def check_run(horizon: int, shape: tuple, modes: bool = False) -> int:
    """Step count of a run of ``horizon`` steps on a lattice of ``shape``, checked.

    Raises ValueError, before anything is allocated, for a horizon
    outside 1 .. HORIZON_CAP or a run whose arrays would exceed
    MEMORY_CAP_BYTES.  A step-loop run keeps two (T+1) x N float arrays,
    states and drifts.  A ``modes`` run (linear, Circulant coupling) keeps
    the states, (T+1) x M complex modes (M counts a real FFT's modes over
    the shape) and a B x B complex block resolvent per mode.
    """
    t = int(horizon)
    if t < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    if t > HORIZON_CAP:
        raise ValueError(f"horizon {t} exceeds the cap of {HORIZON_CAP} steps")
    n = math.prod(shape)
    if modes:
        need = 8 * (t + 1) * n + 16 * math.prod(shape[:-1]) * (shape[-1] // 2 + 1) * (t + 1 + _mode_block(t) ** 2)
    else:
        need = 16 * (t + 1) * n
    if need > MEMORY_CAP_BYTES:
        raise ValueError(
            f"a run of {t} steps on {n} sites needs {need / 2**20:.0f} MiB, "
            f"above the cap of {MEMORY_CAP_BYTES / 2**20:.0f} MiB"
        )
    return t


def _add_far(w: np.ndarray, src: np.ndarray, dst: np.ndarray, lag: int, cache: dict) -> None:
    """Add sum_i w[lag + s + L - 1 - i] * src[i] to row s of ``dst``, L = len(src).

    One FFT product of size 2L per group of columns: no wrap-around
    reaches the rows kept while len(dst) <= L.  ``cache`` maps sizes to
    weight transforms.  Columns are independent, so a complex array goes
    in as its real view.
    """
    span, rows = len(src), len(dst)
    size = 2 * span
    wft = cache.get(size)
    if wft is None:
        wft = cache[size] = np.fft.rfft(w[lag:lag + size - 1], size)[:, None]
    cols = max(1, _FFT_BLOCK // size)  # columns per FFT product
    for c in range(0, src.shape[1], cols):
        prod = np.fft.rfft(src[:, c:c + cols], size, axis=0)
        prod *= wft
        far = np.fft.irfft(prod, size, axis=0)
        dst[:, c:c + cols] += far[span - 1:span - 1 + rows]


def _limit(cutoff: float) -> float:
    # finite states above the limit end a run; a NaN or infinite cutoff
    # leaves only non-finite states to end it
    return float(cutoff) if cutoff < _DOUBLE_MAX else _DOUBLE_MAX


def _cut(rows: np.ndarray, first: int, limit: float) -> int:
    """Rows a run keeps when ``rows`` (rows ``first``.. of it) end it.

    The first row that is not finite ends the run before it; a finite
    row above ``limit`` ends it after it.
    """
    r = np.flatnonzero(~(np.abs(rows).max(axis=1) <= limit))[0]
    return first + r + 1 if np.isfinite(rows[r]).all() else first + r


def _run(alpha: float, drift, x_init: np.ndarray, t_max: int, cutoff: float) -> Trajectory:
    """Iterate X_{t+1} = X_0 + sum_{j<=t} w[t-j] G(X_j) with G = ``drift``.

    The memory sum is split exactly, each pair (j, t) counted once.
    Pairs in the same aligned block of _NEAR steps are summed directly
    by memory_convolution.  Every other pair falls in one dyadic block:
    when step m, a multiple of _NEAR, completes g[m-L:m] with
    L = lowbit(m), one FFT product adds that block's contribution to
    X_{m+1} .. X_{m+L}.  Rows of ``hist`` ahead of the current step hold
    X_0 plus the far-field sums added so far.  A run costs
    O(T log^2 T * N).
    """
    w = kernel_weights(alpha, t_max + 1)
    hist = np.empty((t_max + 1, len(x_init)))
    hist[:] = x_init
    g = np.empty_like(hist)
    cache = {}
    limit = _limit(cutoff)
    with np.errstate(all="ignore"):
        for t in range(t_max):
            b = t - t % _NEAR
            if t == b and b:
                span = b & -b
                _add_far(w, g[b - span:b], hist[b + 1:b + 1 + span], 1, cache)
            g[t] = drift(hist[t])
            x = hist[t + 1]
            x += memory_convolution(w, g[b:], t - b)
            if not np.abs(x).max() <= limit:
                return Trajectory(hist[:_cut(x[None], t + 1, limit)].copy(), alpha, diverged=True)
    return Trajectory(hist, alpha)


def _run_modes(alpha: float, col: np.ndarray, x_init: np.ndarray, t_max: int, cutoff: float):
    """Linear circulant run in Fourier modes; None if the resolvent overflows.

    ``col`` is the first column of A - I, shaped like the lattice;
    ``x_init`` holds its sites in C order.  Mode l of X_t is
    y_t = rfftn(X_t)_l / N, and it obeys
    y_r = y_0 + c sum_{j<r} w[r-1-j] y_j with c = lambda_l - 1.  Rows
    are solved a block of B at a time: inside a block the recurrence is
    a lower-triangular Toeplitz system whose inverse has first column q
    (q_0 = 1, q_k = c sum_{i<k} w[k-1-i] q_i), applied as a batched
    matrix product, not an FFT, so rounding of a growing mode's late
    entries cannot swamp its early ones.  Older rows enter by the same
    dyadic FFT products as in _run.  Rows of ``modes`` ahead of the
    current block hold their far-field sums.
    """
    c = np.fft.rfftn(col)
    modes_shape, c = c.shape, c.ravel()
    w = kernel_weights(alpha, t_max + 1)
    size = _mode_block(t_max)
    limit = _limit(cutoff)
    with np.errstate(all="ignore"):
        q = np.zeros((size, len(c)), complex)
        q[0] = 1.0
        for k in range(1, size):
            q[k] = c * memory_convolution(w, q, k - 1)
        if not np.isfinite(q).all():
            return None  # inf * 0 would reach modes that are exactly zero
        lag = np.subtract.outer(np.arange(size), np.arange(size))
        res = q.T[:, np.maximum(lag, 0)] * (lag >= 0)  # (modes, size, size)
        x_init = x_init.reshape(col.shape)
        y0 = np.fft.rfftn(x_init, norm="forward").ravel()  # |y0| <= max |X_0|
        modes = np.zeros((t_max + 1, len(c)), complex)
        hist = np.empty((t_max + 1,) + col.shape)
        cache, last, axes = {}, col.shape[-1], range(1, col.ndim)
        for b in range(0, t_max + 1, size):
            if b:
                span = b & -b
                _add_far(w, modes[b - span:b].view(float), modes[b:b + span].view(float), 0, cache)
            e = min(b + size, t_max + 1)
            f = y0 + c * modes[b:e]
            y = modes[b:e] = np.matmul(res[:, :e - b, :e - b], f.T[:, :, None])[..., 0].T
            for axis in axes:  # irfftn axis by axis: a ring makes one irfft call
                y = np.fft.ifft(y.reshape((e - b,) + modes_shape), axis=axis, norm="forward")
            x = hist[b:e] = np.fft.irfft(y, last, axis=-1, norm="forward")
            if not b:
                hist[0] = x_init  # row 0 is X_0 itself and ends no run
                x = x[1:]
            if not np.abs(x).max() <= limit:
                cut = _cut(x.reshape(len(x), -1), b or 1, limit)
                return Trajectory(hist[:cut].reshape(cut, -1).copy(), alpha, diverged=True)
    return Trajectory(hist.reshape(t_max + 1, -1), alpha)


def simulate_linear(
    alpha: float,
    coupling,
    x0,
    horizon: int,
    cutoff: float = DIVERGENCE_CUTOFF,
) -> Trajectory:
    """Linear lattice run X_{t+1} = X_0 + (A - I) sum_j w[t-j] X_j.

    ``coupling`` is a ``spectra.Circulant`` (ring, torus or any shape;
    ``x0`` in C order), solved in its Fourier modes a block of rows at a
    time, or an explicit square matrix, which takes the step loop.  A
    circulant run whose block resolvent overflows (|lambda - 1| above
    about 4e9) takes the step loop with its stencil as the drift.  At
    alpha = 1 every weight is 1 and the iteration telescopes to the
    classical X_{t+1} = A X_t.  With an infinite cutoff a run ends at its
    first non-finite row; its FFT and block sums can overflow near the
    float maximum a few rows before the direct sum's would, so it may end
    those few rows earlier.
    """
    a = validate_order(alpha)
    modes = isinstance(coupling, Circulant)
    if modes:
        shape = coupling.shape
    else:
        mat = np.asarray(coupling, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"coupling matrix must be square, got shape {mat.shape}")
        shape = mat.shape[:1]
    n = math.prod(shape)
    x_init = np.asarray(x0, dtype=float)
    if x_init.shape != (n,):
        raise ValueError(f"initial state shape {x_init.shape} does not match n = {n}")
    t_max = check_run(horizon, shape, modes)
    if not modes:
        return _run(a, lambda x: mat @ x - x, x_init, t_max, cutoff)
    traj = _run_modes(a, coupling.first_column(-1.0), x_init, t_max, cutoff)
    if traj is not None:
        return traj
    # the step loop, G(X) = (A - I) X as the stencil's sum of shifted copies of X: no dense matrix
    sites, axes = np.arange(n).reshape(shape), tuple(range(len(shape)))
    terms = [(c, np.roll(sites, [-v for v in k], axes).ravel()) for k, c in coupling.stencil.items()]
    return _run(a, lambda x: sum(c * x[nb] for c, nb in terms) - x, x_init, t_max, cutoff)


def simulate_nonlinear(
    alpha: float,
    f0: MapSpec,
    f1: MapSpec,
    f2: MapSpec,
    x0,
    horizon: int,
    cutoff: float = DIVERGENCE_CUTOFF,
) -> Trajectory:
    """Nonlinear lattice run X_{t+1} = X_0 + sum_j w[t-j] (F(X_j) - X_j).

    F applies f0 to the left neighbor, f1 to the site, f2 to the right
    neighbor, with periodic boundaries.  Map overflow (non-finite values)
    truncates the run with the diverged flag set.
    """
    a = validate_order(alpha)
    x_init = np.asarray(x0, dtype=float)
    if x_init.ndim != 1 or len(x_init) < 1:
        raise ValueError("initial state must be a non-empty vector")
    t_max = check_run(horizon, x_init.shape)
    k = np.arange(len(x_init))
    left, right = (k - 1) % len(x_init), (k + 1) % len(x_init)

    def drift(x):
        return eval_map(f0, x[left]) + eval_map(f1, x) + eval_map(f2, x[right]) - x

    return _run(a, drift, x_init, t_max, cutoff)


def _window(steps: int, window) -> int:
    """``window`` as an int, checked for the window rule on a run of ``steps`` steps."""
    win = int(window)
    if win < 1:
        raise ValueError("window must be >= 1")
    if steps < 4 * win:
        raise ValueError(f"horizon {steps} too short for window {win}; need >= {4 * win}")
    return win


def classify_trajectory(traj: Trajectory, window: int = 100, reference=0.0) -> str:
    """Empirical verdict: decaying, growing, inconclusive or diverged.

    Compares the worst deviation from ``reference`` over the last
    ``window`` steps (h) against the first ``window`` steps (e):
    decaying if h < 0.2 e, growing if h > 5 e.  Power-law memory decays
    slowly, so the thresholds are loose by design; near-boundary systems
    legitimately come out inconclusive at moderate horizons.
    """
    if traj.diverged:
        return DIVERGED
    win = _window(traj.horizon, window)
    dev = np.max(np.abs(traj.states - np.asarray(reference, dtype=float)), axis=1)
    early = float(np.max(dev[:win]))
    late = float(np.max(dev[-win:]))
    if late == 0.0:
        return DECAYING
    if early == 0.0:
        return GROWING
    if late < 0.2 * early:
        return DECAYING
    if late > 5.0 * early:
        return GROWING
    return INCONCLUSIVE


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a stability sweep."""

    p1: float
    p2: float
    analytic: str
    empirical: str | None
    margin: float


_SWEEP_MODES = ("symmetric", "asymmetric", "logistic-cubic", "logistic-circle")
ANALYTIC_CELL_CAP = 1_000_000
SIMULATED_CELL_CAP = 10_000
SWEEP_MODE_CAP = 100_000_000  # n * cells: each cell's margin weighs every mode of its ring
_SPECTRUM_BLOCK = 1 << 16  # eigenvalues per boundary call in a logistic-mode sweep


def _sweep_maps(mode: str, p1: float, p2: float):
    if mode == "logistic-cubic":
        f = cubic_map(p2)
        return f, logistic_map(p1), f
    f2 = circle_map(p2)
    return negated_map(f2), logistic_map(p1), f2


def _spectral_margins(mode: str, alpha: float, n: int, p1s, p2s) -> np.ndarray:
    """Worst eigenvalue margin of each logistic-mode cell, in row-major order.

    Spectra go to the boundary in blocks of about ``_SPECTRUM_BLOCK``
    eigenvalues, which bounds the memory of large grids.
    """
    specs = [CirculantSpec(*linearize_at(*_sweep_maps(mode, p1, p2), 0.0), n) for p1 in p1s for p2 in p2s]
    n = specs[0].shape[0]
    rows = max(1, _SPECTRUM_BLOCK // n)
    blocks = (
        np.concatenate([circulant_eigenvalues(spec).eigenvalues for spec in specs[i:i + rows]])
        for i in range(0, len(specs), rows)
    )
    return np.concatenate([stability.curve_margin(lam, alpha).reshape(-1, n).max(axis=1) for lam in blocks])


def sweep(
    mode: str,
    alpha: float,
    n: int,
    p1_values,
    p2_values,
    simulate: bool = False,
    horizon: int = 2000,
    window: int = 100,
    seed: int = DEFAULT_SEED,
    amplitude: float = DEFAULT_AMPLITUDE,
    threads: int | None = None,
) -> list[SweepCell]:
    """Two-parameter stability map over a grid.

    Parameter meaning per mode: symmetric (p1 = a2, p2 = a1, with
    a0 = a2), asymmetric (p1 = a1, p2 = a2, with a0 = -a2),
    logistic-cubic and logistic-circle (p1 = mu, p2 = delta, classified
    at the origin equilibrium).  Analytic margins are computed for all
    cells at once, not cell by cell.  ``simulate=True`` adds the
    empirical verdict of a seeded run per cell, run one after another;
    cell (i, k) draws its initial state as seeded_state(n, 0.0,
    amplitude, (seed, i, k)).  Before any margin or run, a simulated
    sweep raises ValueError unless amplitude > 0, ``check_run`` accepts
    the horizon, window >= 1 and horizon >= 4 window.  Verdicts use
    ``stability.BOUNDARY_BAND`` and runs ``DIVERGENCE_CUTOFF``.
    ``threads`` is accepted and ignored.  NaN parameters raise ValueError.
    """
    if mode not in _SWEEP_MODES:
        raise ValueError(f"mode must be one of {_SWEEP_MODES}, got {mode!r}")
    a = validate_order(alpha)
    p1s = [float(v) for v in np.atleast_1d(np.asarray(p1_values, dtype=float))]
    p2s = [float(v) for v in np.atleast_1d(np.asarray(p2_values, dtype=float))]
    stability._reject_nan(*p1s, *p2s)
    cells = len(p1s) * len(p2s)
    cap = SIMULATED_CELL_CAP if simulate else ANALYTIC_CELL_CAP
    if cells > cap:
        raise ValueError(f"grid of {cells} cells exceeds the cap of {cap}")
    if int(n) * cells > SWEEP_MODE_CAP:
        raise ValueError(f"{cells} cells of {n} sites exceed the cap of {SWEEP_MODE_CAP} modes")
    if simulate:  # the settings of every run, checked before any margin or run
        if not amplitude > 0.0:
            raise ValueError("amplitude must be positive")
        _window(check_run(horizon, (n,), modes=mode in ("symmetric", "asymmetric")), window)
    if cells == 0:
        return []

    if mode == "symmetric":
        region = stability.symmetric_region(a, n)
    elif mode == "asymmetric":
        region = stability.asymmetric_region(a, n)
    if mode in ("symmetric", "asymmetric"):
        g1, g2 = np.meshgrid(p1s, p2s, indexing="ij")
        margins = region.signed_margin(g1.ravel(), g2.ravel())
    else:
        margins = _spectral_margins(mode, a, n, p1s, p2s)

    def empirical_cell(i: int, k: int, p1: float, p2: float) -> str:
        x0 = seeded_state(n, 0.0, amplitude, (seed, i, k))
        if mode == "symmetric":
            traj = simulate_linear(a, CirculantSpec(p1, p2, p1, n), x0, horizon)
        elif mode == "asymmetric":
            traj = simulate_linear(a, CirculantSpec(-p2, p1, p2, n), x0, horizon)
        else:
            f0, f1, f2 = _sweep_maps(mode, p1, p2)
            traj = simulate_nonlinear(a, f0, f1, f2, x0, horizon)
        return classify_trajectory(traj, window)

    grid = itertools.product(enumerate(p1s), enumerate(p2s))
    return [
        SweepCell(
            p1, p2, stability.margin_status(m),
            empirical_cell(i, k, p1, p2) if simulate else None, m,
        )
        for ((i, p1), (k, p2)), m in zip(grid, margins.tolist())
    ]
