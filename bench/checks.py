"""Output checks for the fracml benchmark, run outside the timed region.

Every check is independent of the code path it checks:

- closed-form spectra against ``numpy.fft`` of the circulant's first
  column, dense spectra against ``numpy.linalg.eigvals``;
- spectrum and sweep-cell verdicts against an exact star-shaped
  membership rule: on the boundary, lambda - 1 has argument
  theta(t) = alpha pi / 2 + t (1 - alpha / 2), increasing in t, and
  modulus r(t) = (2 sin(t/2))^alpha, so lambda is inside exactly when
  theta(t) = arg(lambda - 1) has a solution t and |lambda - 1| < r(t).
  fracml decides membership on an 8192-gon; points that lie between
  that polygon and the curve, or within ``SLACK`` of either, are not
  checked and are counted as unchecked;
- trajectories against their defining recurrence at sampled steps,
  recomputed from the returned history with weights built from
  ``math.lgamma`` rather than fracml's product recurrence;
- trajectory and sweep-cell empirical verdicts re-derived with the
  documented early/late window rule (one re-simulated cell per sweep);
- CSV text parsed back and compared bit for bit with the floats it
  was written from.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

POLYGON_SAMPLES = 8192  # fracml's boundary resolution at the seed commit
SLACK = 1e-6  # radial distance treated as "on the boundary"
CUTOFF = 1e8  # fracml's divergence cutoff (dynamics.DIVERGENCE_CUTOFF)
AMPLITUDE = 0.01  # sweep's initial perturbation (dynamics.DEFAULT_AMPLITUDE)
WINDOW = 100  # fracml's default verdict window, used by sweep and classify_trajectory
CLOSED_FORM_TOL = 1e-12
DENSE_TOL = 1e-7
RECURRENCE_TOL = 1e-9
SAMPLED_STEPS = 24


@dataclass
class Report:
    """Outcome of checking one job's output."""

    failures: list[str] = field(default_factory=list)
    checked: int = 0
    unchecked: int = 0

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    @property
    def ok(self) -> bool:
        return not self.failures


# --- exact geometry -------------------------------------------------------

def _curve_radius(theta, alpha):
    """Boundary radius about the cusp along arg(lambda - 1) = theta (0 outside its range)."""
    lo = alpha * math.pi / 2.0
    t = (theta - lo) / (1.0 - alpha / 2.0)
    inside = (theta > lo) & (theta < 2.0 * math.pi - lo)
    r = np.power(np.clip(2.0 * np.sin(0.5 * np.where(inside, t, 0.0)), 0.0, None), alpha)
    return np.where(inside, r, 0.0)


@functools.lru_cache(maxsize=8)
def _polygon(alpha: float):
    """Vertex angles and coordinates (about the cusp) of fracml's polygon."""
    t = np.linspace(0.0, 2.0 * math.pi, POLYGON_SAMPLES + 1)
    phi = alpha * math.pi / 2.0 + t * (1.0 - alpha / 2.0)
    rk = np.power(np.clip(2.0 * np.sin(0.5 * t), 0.0, None), alpha)
    rk[0] = rk[-1] = 0.0
    return phi, rk * np.cos(phi), rk * np.sin(phi)


def _polygon_radius(theta, alpha):
    """Radius of fracml's sampled boundary polygon along the same ray."""
    phi, px, py = _polygon(alpha)
    k = np.clip(np.searchsorted(phi, theta, side="right") - 1, 0, POLYGON_SAMPLES - 1)
    ux, uy = np.cos(theta), np.sin(theta)
    dx, dy = px[k + 1] - px[k], py[k + 1] - py[k]
    num = px[k] * dy - py[k] * dx
    den = ux * dy - uy * dx
    r = np.where(den != 0.0, num / np.where(den != 0.0, den, 1.0), 0.0)
    within = (theta > phi[0]) & (theta < phi[-1])
    return np.where(within, np.maximum(r, 0.0), 0.0)


def membership(values, alpha: float):
    """(inside, uncertain, radial gap) for each eigenvalue.

    ``inside`` is the exact rule; ``uncertain`` marks points within
    ``SLACK`` of the curve or of fracml's polygon, or between the two.
    """
    z = np.asarray(values, dtype=complex) - 1.0
    rho = np.abs(z)
    theta = np.mod(np.angle(z), 2.0 * math.pi)
    r = _curve_radius(theta, alpha)
    rp = _polygon_radius(theta, alpha)
    inside = rho < r
    uncertain = (
        (inside != (rho < rp))
        | (np.abs(rho - r) <= SLACK)
        | (np.abs(rho - rp) <= SLACK)
        | (rho <= SLACK)
    )
    return inside, uncertain, np.abs(rho - r)


def verdict_outcome(values, alpha: float, status: str, geometry=None) -> str:
    """'ok', 'unchecked' or a failure message for one spectrum verdict.

    ``geometry`` is ``membership(values, alpha)`` when already computed.
    """
    inside, uncertain, gap = geometry or membership(values, alpha)
    certain_in = inside & ~uncertain
    certain_out = ~inside & ~uncertain
    if status == "unstable":
        if certain_in.all():
            return "unstable verdict, but every eigenvalue is inside"
        return "ok" if certain_out.any() else "unchecked"
    if status == "stable":
        if certain_out.any():
            return f"stable verdict, but {complex(np.asarray(values)[certain_out][0])} is outside"
        return "ok" if certain_in.all() else "unchecked"
    if status == "marginal":
        # fracml calls an eigenvalue marginal within 1e-7 of its polygon;
        # near the cusp a radial gap can overstate that distance, so only
        # gaps beyond 1e-3, away from the cusp, are taken as clear
        far = (gap > 1e-3) & (np.abs(np.asarray(values) - 1.0) > 1e-3)
        if (certain_out & far).any():
            return "marginal verdict, but an eigenvalue is clearly outside"
        if uncertain.any():
            return "ok"
        return "marginal verdict, but no eigenvalue is near the boundary" if far.all() else "unchecked"
    return f"unknown verdict {status!r}"


def _tally(report: Report, outcome: str, where: str) -> None:
    if outcome == "ok":
        report.checked += 1
    elif outcome == "unchecked":
        report.unchecked += 1
    else:
        report.fail(f"{where}: {outcome}")


# --- spectra --------------------------------------------------------------

def ring_eigenvalues(a0, a1, a2, n: int) -> np.ndarray:
    """Eigenvalues of circulant rings from numpy.fft of their first column.

    ``a0``, ``a1``, ``a2`` may be arrays (one ring per entry); the
    result then has one row per ring, mode l in column l.
    """
    a0, a1, a2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a0, a1, a2)))
    col = np.zeros(a1.shape + (n,))
    col[..., 0] += a1
    col[..., 1 % n] += a0  # row 1 reads its left neighbour, column 0
    col[..., (n - 1) % n] += a2  # row n-1 reads its right neighbour, column 0
    return np.fft.fft(col, axis=-1)


def torus_eigenvalues(a0, a1, a2, n: int, m: int) -> np.ndarray:
    col = np.zeros((n, m))
    col[0, 0] += a1
    col[1 % n, 0] += a0
    col[(n - 1) % n, 0] += a0
    col[0, 1 % m] += a2
    col[0, (m - 1) % m] += a2
    return np.fft.fft2(col).ravel()


def _match_multisets(a, b) -> float:
    """Largest pair distance of a greedy closest-pair matching."""
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    worst = 0.0
    for _ in range(len(a)):
        i, j = np.unravel_index(np.argmin(d), d.shape)
        worst = max(worst, float(d[i, j]))
        d[i, :] = np.inf
        d[:, j] = np.inf
    return worst


def check_spectrum(job, out, report: Report) -> None:
    p = job.params
    spec, verdict = out.value
    vals = np.asarray(spec.eigenvalues)
    if job.kind == "dense":
        ref = np.linalg.eigvals(p["matrix"])
        scale = max(1.0, float(np.linalg.norm(p["matrix"])))
        if len(vals) != len(ref):
            report.fail(f"{job.name}: {len(vals)} eigenvalues, expected {len(ref)}")
            return
        err = _match_multisets(vals, ref)
        if not err <= DENSE_TOL * scale:
            report.fail(f"{job.name}: eigenvalues differ from numpy.linalg.eigvals by {err:.3g}")
    else:
        a0, a1, a2 = p["a0"], p["a1"], p["a2"]
        if p["form"] == "block":
            ref = torus_eigenvalues(a0, a1, a2, p["n"], p["m"])
        else:
            ref = ring_eigenvalues(a0, a1, a2, p["n"])
        scale = abs(a0) + abs(a1) + abs(a2)
        err = float(np.max(np.abs(vals - ref))) if len(vals) == len(ref) else math.inf
        if not err <= CLOSED_FORM_TOL * max(scale, 1.0):
            report.fail(f"{job.name}: closed form differs from numpy.fft by {err:.3g}")
    report.checked += 1
    _tally(report, verdict_outcome(vals, p["alpha"], verdict.status), job.name)


# --- sweeps ---------------------------------------------------------------

def cell_couplings(mode: str, p1, p2):
    """(a0, a1, a2) of sweep cells, linearized at the origin for logistic modes."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if mode == "symmetric":  # p1 = a2, p2 = a1, a0 = a2
        return p1, p2, p1
    if mode == "asymmetric":  # p1 = a1, p2 = a2, a0 = -a2
        return -p2, p1, p2
    if mode == "logistic-cubic":  # d/dx (4x^3 - delta x) = -delta, d/dx mu x (1-x) = mu
        return -p2, p1, -p2
    # logistic-circle: f2 = x + delta sin x, f0 = -f2
    return -(1.0 + p2), p1, 1.0 + p2


def _parse_sweep_csv(text: str):
    lines = text.split("\n")
    if lines[0] != "p1,p2,analytic_verdict,empirical_verdict,margin" or lines[-1] != "":
        raise ValueError("bad header or missing final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    for row in rows:
        if len(row) != 5:
            raise ValueError(f"row {','.join(row)!r} has {len(row)} fields")
    return rows


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(a.view(np.int64) == b.view(np.int64)))


def check_sweep_csv(job, cells, text: str, report: Report) -> None:
    try:
        rows = _parse_sweep_csv(text)
        parsed = np.array([[float(r[0]), float(r[1]), float(r[4])] for r in rows])
    except ValueError as exc:
        report.fail(f"{job.name}: sweep CSV does not parse: {exc}")
        return
    want = np.array([[c.p1, c.p2, c.margin] for c in cells])
    if len(rows) != len(cells) or not _same_bits(parsed, want):
        report.fail(f"{job.name}: sweep CSV floats do not round-trip")
        return
    for r, c in zip(rows, cells):
        if r[2] != c.analytic or r[3] != (c.empirical or ""):
            report.fail(f"{job.name}: sweep CSV verdicts differ from the cells")
            return
    report.checked += 1


def check_sweep(job, out, report: Report) -> None:
    p = job.params
    cells = out.value
    grid = [(a, b) for a in p["p1"] for b in p["p2"]]
    if [(c.p1, c.p2) for c in cells] != grid:
        report.fail(f"{job.name}: cells do not cover the grid in row-major order")
        return
    a0, a1, a2 = cell_couplings(p["mode"], [g[0] for g in grid], [g[1] for g in grid])
    eigs = ring_eigenvalues(a0, a1, a2, p["n"])
    inside, uncertain, gap = membership(eigs, p["alpha"])
    for k, cell in enumerate(cells):
        outcome = verdict_outcome(eigs[k], p["alpha"], cell.analytic, (inside[k], uncertain[k], gap[k]))
        _tally(report, outcome, f"{job.name} cell {k}")
    if p["simulate"]:
        _check_empirical_cell(job, cells, report)
    check_sweep_csv(job, cells, out.csv, report)


def _check_empirical_cell(job, cells, report: Report) -> None:
    p = job.params
    n2 = len(p["p2"])
    idx = p["seed"] % len(cells)
    i, k = divmod(idx, n2)
    x0 = np.random.default_rng((p["seed"], i, k)).uniform(-AMPLITUDE, AMPLITUDE, p["n"])
    if p["mode"] in ("symmetric", "asymmetric"):
        a0, a1, a2 = (float(v) for v in cell_couplings(p["mode"], p["p1"][i], p["p2"][k]))
        drift, _ = linear_system(a0, a1, a2, p["n"])
    else:  # logistic-cubic: p1 = mu, p2 = delta
        drift, _ = nonlinear_system(p["p1"][i], p["p2"][k])
    states, diverged = reference_run(p["alpha"], drift, x0, p["horizon"])
    expected = window_verdict(states, diverged)
    got = cells[idx].empirical
    if expected is None:
        report.unchecked += 1
    elif got != expected:
        report.fail(f"{job.name} cell {idx}: empirical verdict {got}, re-simulated {expected}")
    else:
        report.checked += 1


# --- trajectories ---------------------------------------------------------
#
# Both simulators follow X_{t+1} = X_0 + sum_{j<=t} w[t-j] G(X_j), with
# G(X) = (A - I) X for the linear ring and G(X) = F(X) - X for the
# nonlinear one.  ``bound`` gives the magnitude the rounding error of
# fracml's evaluation order scales with.

def lgamma_weights(alpha: float, length: int) -> np.ndarray:
    """w[k] = Gamma(k + alpha) / (Gamma(alpha) Gamma(k + 1)) from log-gamma."""
    la = math.lgamma(alpha)
    return np.array([math.exp(math.lgamma(k + alpha) - la - math.lgamma(k + 1.0))
                     for k in range(length)])


def linear_system(a0, a1, a2, n: int):
    """(drift, bound) of the linear ring with left/self/right weights."""
    mat = -np.eye(n)
    idx = np.arange(n)
    mat[idx, idx] += a1
    mat[idx, (idx + 1) % n] += a2
    mat[idx, (idx - 1) % n] += a0
    absmat = np.abs(mat)

    def drift(rows):
        return rows @ mat.T

    def bound(w_rev, rows, g):
        return absmat @ (w_rev @ np.abs(rows))

    return drift, bound


def nonlinear_system(mu: float, delta: float):
    """(drift, bound) of a logistic ring with cubic neighbours.

    Site k maps to (4 x^3 - delta x)(x[k-1]) + mu x[k] (1 - x[k])
    + (4 x^3 - delta x)(x[k+1]), the logistic-cubic sweep mode.
    """
    def drift(rows):
        left, right = np.roll(rows, 1, axis=-1), np.roll(rows, -1, axis=-1)
        with np.errstate(all="ignore"):
            side = 4.0 * left**3 - delta * left + 4.0 * right**3 - delta * right
            return side + mu * rows * (1.0 - rows) - rows

    def bound(w_rev, rows, g):
        return w_rev @ np.abs(g)

    return drift, bound


def reference_run(alpha: float, drift, x0, horizon: int):
    """Independent simulation with log-gamma weights: (states, diverged)."""
    w = lgamma_weights(alpha, horizon + 1)
    hist = np.zeros((horizon + 1, len(x0)))
    g = np.zeros_like(hist)
    hist[0] = x0
    for t in range(horizon):
        g[t] = drift(hist[t])
        x = x0 + w[t::-1] @ g[: t + 1]
        if not (np.all(np.isfinite(g[t])) and np.all(np.isfinite(x))):
            return hist[: t + 1], True
        hist[t + 1] = x
        if np.max(np.abs(x)) > CUTOFF:
            return hist[: t + 2], True
    return hist, False


def window_verdict(states, diverged: bool, window: int = WINDOW):
    """The documented early/late rule; None when a threshold is too close to call."""
    if diverged:
        return "diverged"
    dev = np.max(np.abs(states), axis=1)
    early = float(np.max(dev[:window]))
    late = float(np.max(dev[-window:]))
    if late == 0.0:
        return "decaying"
    if early == 0.0:
        return "growing"
    ratio = late / early
    if abs(ratio / 0.2 - 1.0) < 1e-6 or abs(ratio / 5.0 - 1.0) < 1e-6:
        return None
    if ratio < 0.2:
        return "decaying"
    if ratio > 5.0:
        return "growing"
    return "inconclusive"


def _lines(text: str, start: int):
    # one line at a time: a parser buffer of the whole text would make the
    # check, not the job, set the process's peak memory
    while start < len(text):
        end = text.index("\n", start)
        yield text[start:end]
        start = end + 1


def _parse_trajectory_csv(text: str, n: int) -> np.ndarray:
    head = text[: text.find("\n")]
    if head != "t," + ",".join(f"site_{k + 1}" for k in range(n)):
        raise ValueError("bad header")
    if not text.endswith("\n"):
        raise ValueError("missing final newline")
    data = np.loadtxt(_lines(text, len(head) + 1), delimiter=",", dtype=float, ndmin=2)
    if data.shape[1] != n + 1:
        raise ValueError(f"expected {n + 1} columns, got {data.shape[1]}")
    return data


def sampled_steps(rows: int, seed: int) -> list[int]:
    """Row indices (>= 1) whose recurrence is recomputed: first, last, random."""
    last = rows - 1
    if last < 1:
        return []
    rng = np.random.default_rng(seed)
    picks = set(rng.integers(1, last + 1, SAMPLED_STEPS).tolist())
    return sorted(picks | {1, min(2, last), last})


def check_trajectory(job, out, report: Report) -> None:
    p = job.params
    traj, verdict = out.value
    states = np.asarray(traj.states)
    n, horizon = p["n"], p["horizon"]
    if states.shape[1] != n or not np.array_equal(states[0], p["x0"]):
        report.fail(f"{job.name}: history does not start at the initial state")
        return
    if p["system"] == "linear":
        drift, bound = linear_system(*p["coupling"], n)
    else:
        drift, bound = nonlinear_system(p["mu"], p["delta"])
    g = drift(states)
    w = lgamma_weights(p["alpha"], len(states))
    worst = 0.0
    for s in sampled_steps(len(states), zlib.crc32(job.name.encode()) + len(states)):
        w_rev = w[s - 1 :: -1]
        x = states[0] + w_rev @ g[:s]
        scale = np.abs(states[0]) + bound(w_rev, states[:s], g[:s])
        worst = max(worst, float(np.max(np.abs(x - states[s]) / np.maximum(scale, 1e-300))))
    if not worst <= RECURRENCE_TOL:
        report.fail(f"{job.name}: history breaks its recurrence (relative error {worst:.3g})")
    # a full run stays under the cutoff; a cut one ends past it or just
    # before a step that is no longer finite
    peak = float(np.max(np.abs(states[-1])))
    if not traj.diverged:
        ok = len(states) == horizon + 1 and bool(np.all(np.abs(states) <= CUTOFF))
    elif peak > CUTOFF:
        ok = True
    else:
        with np.errstate(all="ignore"):
            nxt = states[0] + w[::-1] @ g
        ok = len(states) <= horizon and not (np.all(np.isfinite(g[-1])) and np.all(np.isfinite(nxt)))
    if not ok:
        report.fail(f"{job.name}: diverged={traj.diverged} with {len(states)} rows, last peak {peak:.3g}")
    expected = window_verdict(states, traj.diverged)
    if expected is None:
        report.unchecked += 1
    elif verdict != expected:
        report.fail(f"{job.name}: verdict {verdict}, window rule gives {expected}")
    try:
        data = _parse_trajectory_csv(out.csv, n)
    except ValueError as exc:
        report.fail(f"{job.name}: trajectory CSV does not parse: {exc}")
        return
    if not (np.array_equal(data[:, 0], np.arange(len(states))) and _same_bits(data[:, 1:], states)):
        report.fail(f"{job.name}: trajectory CSV floats do not round-trip")
    if report.ok:
        report.checked += 1


def check(job, out) -> Report:
    """Check one job's output; never raises for a wrong output."""
    report = Report()
    if job.kind == "sweep":
        check_sweep(job, out, report)
    elif job.kind in ("spectrum", "dense"):
        check_spectrum(job, out, report)
    else:
        check_trajectory(job, out, report)
    return report
