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
from .spectra import Circulant, CirculantSpec

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
_GROUP_BYTES = 1 << 23  # arrays of the sweep cells one mode-space run solves together
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
    An amplitude outside 0 < amplitude < inf raises ValueError.
    """
    _check_amplitude(amplitude)
    rng = np.random.default_rng(seed)
    if positive:
        return base + amplitude * (1.0 - rng.random(int(n)))
    return base + rng.uniform(-amplitude, amplitude, int(n))


def _check_amplitude(amplitude: float) -> None:
    """Refuse an amplitude that is not positive and finite: NaN or inf draws no state."""
    if not 0.0 < amplitude < math.inf:
        raise ValueError(f"amplitude must be positive and finite, got {amplitude!r}")


def _mode_block(t_max: int) -> int:
    # the largest power of two B with B^2 <= 2 (T+1): a short run's
    # resolvent takes at most twice the memory of its modes
    return min(_MODE_BLOCK, 1 << ((2 * t_max + 2).bit_length() - 1) // 2)


def _run_bytes(t: int, shape: tuple, modes: bool) -> int:
    """Bytes of the arrays one run keeps; see ``check_run``."""
    n = math.prod(shape)
    if modes:
        return 8 * (t + 1) * n + 16 * math.prod(shape[:-1]) * (shape[-1] // 2 + 1) * (t + 1 + _mode_block(t) ** 2)
    return 16 * (t + 1) * n


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
    need = _run_bytes(t, shape, modes)
    if need > MEMORY_CAP_BYTES:
        raise ValueError(
            f"a run of {t} steps on {math.prod(shape)} sites needs {need / 2**20:.0f} MiB, "
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


def _resolvent(w: np.ndarray, c: np.ndarray, size: int):
    """First columns q (size x modes) of one cell's block resolvents; None if they overflow."""
    q = np.zeros((size, len(c)), complex)
    q[0] = 1.0
    for k in range(1, size):
        q[k] = c * memory_convolution(w, q, k - 1)
    return q if np.isfinite(q).all() else None  # inf * 0 would reach modes that are exactly zero


def _run_modes(alpha: float, cols: np.ndarray, x_init: np.ndarray, t_max: int, cutoff: float) -> list:
    """Linear circulant runs in Fourier modes, one per cell; None for a cell whose resolvent overflows.

    Row i of ``cols`` is cell i's first column of A - I, shaped like the
    lattice; row i of ``x_init`` holds its sites in C order.  Mode l of
    X_t is y_t = rfftn(X_t)_l / N, and it obeys
    y_r = y_0 + c sum_{j<r} w[r-1-j] y_j with c = lambda_l - 1.  Rows
    are solved a block of B at a time: inside a block the recurrence is
    a lower-triangular Toeplitz system whose inverse has first column q
    (q_0 = 1, q_k = c sum_{i<k} w[k-1-i] q_i), applied as a batched
    matrix product, not an FFT, so rounding of a growing mode's late
    entries cannot swamp its early ones.  Older rows enter by the same
    dyadic FFT products as in _run.  Rows of ``modes`` ahead of the
    current block hold their far-field sums.

    All cells share alpha, the horizon, the weights and each block's FFT
    products; each has its own columns of modes, its own resolvents
    (built as a run of one cell builds them) and its own cut row.  Every
    operation acts on each column alone, so a cell's trajectory is bit
    for bit the one it gets when run alone, and a diverged cell's columns
    are zeroed at its cut, so its inf or NaN reaches no other cell.
    """
    cells, shape = len(cols), cols.shape[1:]
    w = kernel_weights(alpha, t_max + 1)
    size = _mode_block(t_max)
    limit = _limit(cutoff)
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    out = [None] * cells
    with np.errstate(all="ignore"):
        c = np.fft.rfftn(cols, axes=range(1, cols.ndim))
        modes_shape = c.shape[1:]
        c = c.reshape(cells, -1)
        qs = [_resolvent(w, ci, size) for ci in c]
        run = [i for i, q in enumerate(qs) if q is not None]
        if not run:
            return out
        k, m = len(run), c.shape[1]
        # (cells, modes, size, size), each cell's matrices strided as a run of
        # one cell lays them out, so the matrix products round alike
        res = np.empty((k, size, size, m), complex).transpose(0, 3, 1, 2)
        for j, i in enumerate(run):
            np.multiply(qs[i].T[:, np.maximum(lag, 0)], lag >= 0, out=res[j])
        del qs
        c = c[run].ravel()
        x_init = x_init[run].reshape((k,) + shape)
        y0 = np.fft.rfftn(x_init, axes=range(1, cols.ndim), norm="forward").ravel()  # |y0| <= max |X_0|
        modes = np.zeros((t_max + 1, k * m), complex)
        hist = np.empty((t_max + 1, k) + shape)
        cut = [None] * k  # rows each cell keeps; None for a run to the horizon
        cache, last, axes = {}, shape[-1], range(2, cols.ndim)
        for b in range(0, t_max + 1, size):
            if b:
                span = b & -b
                _add_far(w, modes[b - span:b].view(float), modes[b:b + span].view(float), 0, cache)
            e = min(b + size, t_max + 1)
            f = (y0 + c * modes[b:e]).reshape(e - b, k, m)
            # each cell's right-hand sides strided as in a run of one cell, too
            f = np.ascontiguousarray(f.transpose(1, 0, 2)).transpose(0, 2, 1)[..., None]
            y = np.matmul(res[:, :, :e - b, :e - b], f)[..., 0].transpose(2, 0, 1)
            modes[b:e] = y.reshape(e - b, k * m)
            y = y.reshape((e - b, k) + modes_shape)
            for axis in axes:  # irfftn axis by axis: a ring makes one irfft call
                y = np.fft.ifft(y, axis=axis, norm="forward")
            x = hist[b:e] = np.fft.irfft(y, last, axis=-1, norm="forward")
            if not b:
                hist[0] = x_init  # row 0 is X_0 itself and ends no run
                x = x[1:]
            if not np.abs(x).max() <= limit:
                x = x.reshape(len(x), k, -1)
                for j in np.flatnonzero(~(np.abs(x).max(axis=(0, 2)) <= limit)):
                    cut[j] = _cut(x[:, j], b or 1, limit)
                    cols_j = slice(j * m, (j + 1) * m)
                    c[cols_j] = y0[cols_j] = modes[:, cols_j] = 0.0
                if None not in cut:
                    break
    for j, i in enumerate(run):
        if cut[j] is None:
            out[i] = Trajectory(np.ascontiguousarray(hist[:, j].reshape(t_max + 1, -1)), alpha)
        else:
            out[i] = Trajectory(hist[:cut[j], j].reshape(cut[j], -1).copy(), alpha, diverged=True)
    return out


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
    traj = _run_modes(a, coupling.first_column(-1.0)[None], x_init[None], t_max, cutoff)[0]
    return traj if traj is not None else _stencil_run(a, coupling, x_init, t_max, cutoff)


def _stencil_run(alpha: float, coupling: Circulant, x_init: np.ndarray, t_max: int, cutoff: float) -> Trajectory:
    """The step loop with G(X) = (A - I) X as the stencil's sum of shifted copies of X: no dense matrix."""
    shape = coupling.shape
    sites, axes = np.arange(math.prod(shape)).reshape(shape), tuple(range(len(shape)))
    terms = [(c, np.roll(sites, [-v for v in k], axes).ravel()) for k, c in coupling.stencil.items()]
    return _run(alpha, lambda x: sum(c * x[nb] for c, nb in terms) - x, x_init, t_max, cutoff)


def _linear_cells(alpha: float, shape: tuple, t_max: int, cells):
    """Trajectories of linear circulant cells on one lattice ``shape``, in order.

    ``cells`` yields (coupling, initial state) pairs.  They run in groups
    of at most _GROUP_BYTES, as ``check_run`` counts a run, one mode-space
    run per group; a cell whose resolvent overflows takes the step loop
    on its own.  Each trajectory is bit for bit ``simulate_linear``'s.
    """
    group = max(1, _GROUP_BYTES // _run_bytes(t_max, shape, True))
    cells = iter(cells)
    while part := list(itertools.islice(cells, group)):
        cols = np.stack([coupling.first_column(-1.0) for coupling, _ in part])
        runs = _run_modes(alpha, cols, np.stack([x0 for _, x0 in part]), t_max, DIVERGENCE_CUTOFF)
        for (coupling, x0), traj in zip(part, runs):
            yield traj if traj is not None else _stencil_run(alpha, coupling, x0, t_max, DIVERGENCE_CUTOFF)


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


# sweep mode -> the coupling region of its ring: symmetric (a0 = a2) or antisymmetric (a0 = -a2)
_SWEEP_MODES = {"symmetric": "symmetric", "asymmetric": "asymmetric",
                "logistic-cubic": "symmetric", "logistic-circle": "asymmetric"}
ANALYTIC_CELL_CAP = 1_000_000
SIMULATED_CELL_CAP = 10_000
SWEEP_MODE_CAP = 100_000_000  # n * cells of a simulated sweep: each run steps every site of its ring


def _sweep_maps(mode: str, p1: float, p2: float):
    if mode == "logistic-cubic":
        f = cubic_map(p2)
        return f, logistic_map(p1), f
    f2 = circle_map(p2)
    return negated_map(f2), logistic_map(p1), f2


def _sweep_rings(mode: str, p1s, p2s):
    """Rings (a0, a1, a2) of a sweep's cells, each an array over the cells in row-major order.

    A symmetric cell is (p1, p2, p1), an asymmetric one (-p2, p1, p2).  A
    logistic cell is its maps' linearization at the origin, where a1
    depends on mu alone and a0, a2 on delta alone, so each axis value is
    linearized once.
    """
    rows, cols = len(p1s), len(p2s)
    if mode in ("symmetric", "asymmetric"):
        p1, p2 = np.repeat(p1s, cols), np.tile(p2s, rows)
        return (p1, p2, p1) if mode == "symmetric" else (-p2, p1, p2)
    a1 = [linearize_at(*_sweep_maps(mode, p1, 0.0), 0.0)[1] for p1 in p1s]
    a0, _, a2 = np.array([linearize_at(*_sweep_maps(mode, 0.0, p2), 0.0) for p2 in p2s]).T
    return np.tile(a0, rows), np.repeat(a1, cols), np.tile(a2, rows)


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
    at the origin equilibrium, where they linearize to the rings
    (-delta, mu, -delta) and (-(1 + delta), mu, 1 + delta)).  A cell's
    analytic margin is the ``signed_margin`` of its ring's region,
    symmetric or asymmetric, read for all cells at once and at any n, so
    logistic-cubic, like symmetric, raises ValueError at n = 1.
    ``simulate=True`` adds the empirical verdict of a seeded run per cell;
    cell (i, k) draws its initial state as
    seeded_state(n, 0.0, amplitude, (seed, i, k)).  Linear cells
    (symmetric, asymmetric) run together, in mode-space runs of groups of
    cells, and each gets the trajectory of its run alone, bit for bit;
    nonlinear cells run one after another.  Before any margin or run, a
    simulated sweep raises ValueError unless n times its cells is within
    ``SWEEP_MODE_CAP``, 0 < amplitude < inf, ``check_run`` accepts the
    horizon, window >= 1 and horizon >= 4 window.  Verdicts use
    ``stability.BOUNDARY_BAND`` and runs ``DIVERGENCE_CUTOFF``.
    ``threads`` is accepted and ignored.  NaN parameters raise ValueError.
    """
    if mode not in _SWEEP_MODES:
        raise ValueError(f"mode must be one of {tuple(_SWEEP_MODES)}, got {mode!r}")
    linear = mode in ("symmetric", "asymmetric")
    a = validate_order(alpha)
    p1s = [float(v) for v in np.atleast_1d(np.asarray(p1_values, dtype=float))]
    p2s = [float(v) for v in np.atleast_1d(np.asarray(p2_values, dtype=float))]
    stability._reject_nan(*p1s, *p2s)
    cells = len(p1s) * len(p2s)
    cap = SIMULATED_CELL_CAP if simulate else ANALYTIC_CELL_CAP
    if cells > cap:
        raise ValueError(f"grid of {cells} cells exceeds the cap of {cap}")
    if simulate:  # the settings of every run, checked before any margin or run
        if int(n) * cells > SWEEP_MODE_CAP:
            raise ValueError(f"{cells} cells of {n} sites exceed the cap of {SWEEP_MODE_CAP} modes")
        _check_amplitude(amplitude)
        t_max = check_run(horizon, (int(n),), modes=linear)
        _window(t_max, window)
    if cells == 0:
        return []

    a0, a1, a2 = _sweep_rings(mode, p1s, p2s)
    if _SWEEP_MODES[mode] == "symmetric":
        margins = stability.symmetric_region(a, n).signed_margin(a2, a1)
    else:
        margins = stability.asymmetric_region(a, n).signed_margin(a1, a2)

    empirical = itertools.repeat(None)
    if simulate:  # lazily, so that only one group of runs is alive at a time
        grid = itertools.product(range(len(p1s)), range(len(p2s)))
        starts = (seeded_state(n, 0.0, amplitude, (seed, i, k)) for i, k in grid)
        if linear:
            rings = (CirculantSpec(*ring, n) for ring in zip(a0.tolist(), a1.tolist(), a2.tolist()))
            trajs = _linear_cells(a, (int(n),), t_max, zip(rings, starts))
        else:
            params = itertools.product(p1s, p2s)
            trajs = (simulate_nonlinear(a, *_sweep_maps(mode, p1, p2), x0, t_max) for (p1, p2), x0 in zip(params, starts))
        empirical = (classify_trajectory(traj, window) for traj in trajs)
    return [
        SweepCell(p1, p2, stability.margin_status(m), verdict, m)
        for (p1, p2), m, verdict in zip(itertools.product(p1s, p2s), margins.tolist(), empirical)
    ]
