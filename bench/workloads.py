"""Input generators and job runners for the fracml benchmark.

A workload is a list of jobs run as one pass; the timed loop repeats
passes.  ``pass_jobs(workload, seed, index)`` builds pass ``index`` from
its own random stream, so the same seed always gives the same inputs,
and every pass draws fresh parameter values (no two passes repeat
inputs that a cache could key on).  The seed moves parameter values
only: job names and shapes (ring size, horizon, grid size, matrix size)
are fixed per workload, so the work in a pass does not depend on it.

Workloads:

analytic-map
    Analytic sweeps in all four modes, classify_spectrum on closed-form
    spectra of large rings, and on dense spectra of non-circulant
    matrices.  The stability layer does most of the work; no simulation.
sim-sweep
    Simulated 2 x 4 sweeps on small rings with short horizons.  One grid
    axis places the cell's leading eigenvalue at a fixed target (deep
    inside, just inside, slowly growing, fast growing), so the verdict
    mix is the same for every seed.  Per-step Python overhead dominates.
long-horizon
    A few long single runs, each classified and written as CSV.  The
    O(T^2 N) memory convolution dominates; stability never runs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from fracml import cli, dynamics, spectra, stability

WORKLOADS = ("analytic-map", "sim-sweep", "long-horizon")

# Percentile of job time reported as the tail.  It is fixed per workload,
# so a faster program does not move it.  At 30 s a run has about 300,
# 150-180 and 40-45 jobs; p90 leaves at least ten beyond it on the first
# two, and long-horizon uses p75, which leaves 10 or 11.
TAIL_PERCENTILE = {"analytic-map": 90, "sim-sweep": 90, "long-horizon": 75}


@dataclass(frozen=True)
class Job:
    """One call chain into fracml and the values it is given."""

    name: str
    kind: str  # sweep | spectrum | dense | trajectory
    shape: tuple
    params: dict = field(compare=False)


@dataclass
class Output:
    """What a job returned, plus the counts the metrics need."""

    value: object
    verdicts: int
    csv: str | None = None


def _jitter(rng, value: float, rel: float) -> float:
    return value * (1.0 + rel * rng.uniform(-1.0, 1.0))


def growth_epsilon(rho: float, alpha: float) -> float:
    """lambda - 1 whose linear mode grows by e^rho per step.

    The mode's generating function has its pole where
    (1 - z)^alpha = (lambda - 1) z; put that pole at z = e^-rho.
    """
    z = math.exp(-rho)
    return (1.0 - z) ** alpha / z


# Leading-eigenvalue targets of the four sim-sweep cell classes, as
# lambda - 1: decaying, inconclusive, growing, diverged.  On the nonlinear
# ring a perturbation of -0.01 meets the logistic term -mu x^2, which
# outweighs a 0.002 margin and tips "just inside" cells over, and growth
# runs into the cubic term; there the classes are decaying, decaying,
# diverged, diverged.
def _class_targets(rng, alpha: float, nonlinear: bool) -> list[float]:
    return [
        _jitter(rng, -0.45 * 2.0**alpha, 0.05),
        _jitter(rng, -0.15 * 2.0**alpha if nonlinear else -0.002, 0.25),
        growth_epsilon(_jitter(rng, 0.008, 0.05), alpha),
        growth_epsilon(_jitter(rng, 0.08, 0.05), alpha),
    ]


def _analytic_map(rng) -> list[Job]:
    jobs = []
    u = rng.uniform

    def grid(lo, hi, k, pad):
        return (np.linspace(lo, hi, k) + u(-pad, pad)).tolist()

    for mode, n, g1, g2, axes in (
        ("symmetric", 9, 40, 40, ((-0.35, 0.35), (-0.9, 1.1))),
        ("asymmetric", 10, 20, 20, ((-0.9, 1.1), (-0.7, 0.7))),
        ("logistic-cubic", 8, 6, 6, ((-0.5, 1.2), (-0.4, 0.4))),
        ("logistic-circle", 8, 6, 6, ((-0.5, 1.2), (-1.4, -0.6))),
    ):
        jobs.append(Job(
            f"sweep-{mode}", "sweep", (mode, n, g1, g2),
            dict(mode=mode, alpha=u(0.3, 0.9), n=n,
                 p1=grid(*axes[0], g1, 0.02), p2=grid(*axes[1], g2, 0.02),
                 simulate=False, horizon=2000, seed=int(rng.integers(2**31))),
        ))
    for form, n, m in (
        ("circulant", 1000, 1), ("circulant", 512, 1), ("block", 24, 32),
        ("asymmetric", 640, 1), ("marginal", 500, 1),
    ):
        a0, a1, a2 = u(-0.4, 0.4), u(-0.2, 0.6), u(-0.4, 0.4)
        if form == "asymmetric":
            a0 = -a2
        if form == "marginal":
            # symmetric ring whose mode 0 sits exactly on the cusp (1, 0):
            # dyadic weights make a1 + 2 a2 == 1 hold exactly
            a2 = int(rng.integers(8, 33)) / 256.0
            a0, a1 = a2, 1.0 - 2.0 * a2
        jobs.append(Job(
            f"spectrum-{form}-{n}x{m}", "spectrum", (form, n, m),
            dict(form=form, alpha=u(0.3, 0.9), a0=a0, a1=a1, a2=a2, n=n, m=m),
        ))
    for n in (12, 20, 28, 36, 48, 64):
        # non-circulant: shifted, scaled Ginibre matrix with eigenvalues
        # spread over a disc that straddles the stability boundary
        c, s = u(-0.1, 0.5), u(0.3, 0.9)
        mat = c * np.eye(n) + s / math.sqrt(n) * rng.standard_normal((n, n))
        jobs.append(Job(f"dense-{n}", "dense", (n,), dict(alpha=u(0.3, 0.9), matrix=mat)))
    return jobs


def _sim_sweep(rng) -> list[Job]:
    jobs = []
    for mode in ("symmetric", "asymmetric", "logistic-cubic"):
        for n in (4, 6, 8, 12):
            alpha = rng.uniform(0.5, 0.7)
            eps = _class_targets(rng, alpha, mode == "logistic-cubic")
            small = [0.001 * (1.0 + 0.2 * rng.uniform()), 0.002 * (1.0 + 0.2 * rng.uniform())]
            # the class axis holds the leading eigenvalue minus the spread
            # the small axis adds (2 |a2| or 2 |delta| at most)
            spread = 2.0 * max(small)
            lead = [1.0 + e - spread for e in eps]
            if mode == "symmetric":  # p1 = a2, p2 = a1
                p1, p2 = small, lead
            else:  # asymmetric: p1 = a1, p2 = a2; logistic-cubic: p1 = mu, p2 = delta
                p1, p2 = lead, small
            jobs.append(Job(
                f"simsweep-{mode}-{n}", "sweep", (mode, n, len(p1), len(p2)),
                dict(mode=mode, alpha=alpha, n=n, p1=p1, p2=p2, simulate=True,
                     horizon=1000, seed=int(rng.integers(2**31))),
            ))
    return jobs


def _long_horizon(rng) -> list[Job]:
    # Job costs differ by about 25 % from one to the next (about 0.1, 0.7,
    # 0.95, 1.25 and 1.5 s on a 2-vCPU Xeon VM), so the median and the p75
    # job each fall inside one job's cluster of times.
    u = rng.uniform
    jobs = []

    def linear(name, n, horizon, alpha, a0, a1, a2):
        x0 = u(-0.01, 0.01, n)
        jobs.append(Job(name, "trajectory", ("linear", n, horizon), dict(
            system="linear", alpha=alpha, coupling=(a0, a1, a2), n=n, x0=x0, horizon=horizon)))

    # symmetric ring whose leading mode sits just inside: inconclusive
    a2 = u(0.01, 0.02)
    linear("linear-64x4000", 64, 4000, u(0.5, 0.7), a2, 1.0 - 0.001 - 2.0 * a2, a2)
    # slow exponential growth that stays below the cutoff: growing
    alpha = u(0.5, 0.7)
    a2 = u(0.01, 0.02)
    eps = growth_epsilon(_jitter(rng, 0.0007, 0.05), alpha)
    linear("linear-3x15000", 3, 15000, alpha, a2, 1.0 + eps - 2.0 * a2, a2)
    # complex spectrum well inside the region: decaying
    linear("linear-3x20000", 3, 20000, u(0.4, 0.8), u(-0.1, 0.1), u(0.1, 0.3), u(-0.1, 0.1))
    # grows to the divergence cutoff near step 2500 (FFT-rounding hazard)
    alpha = _jitter(rng, 0.4, 0.05)
    a2 = u(0.01, 0.02)
    eps = growth_epsilon(_jitter(rng, 23.0 / 2500.0, 0.03), alpha)
    linear("linear-5x5000-diverging", 5, 5000, alpha, a2, 1.0 + eps - 2.0 * a2, a2)
    # bounded nonlinear run: logistic site, cubic neighbours, decaying
    n = 8
    jobs.append(Job("nonlinear-8x8000", "trajectory", ("nonlinear", n, 8000), dict(
        system="nonlinear", alpha=u(0.5, 0.7), n=n, mu=u(0.3, 0.6), delta=u(0.02, 0.05), x0=u(-0.01, 0.01, n), horizon=8000)))
    return jobs


_BUILDERS = {"analytic-map": _analytic_map, "sim-sweep": _sim_sweep, "long-horizon": _long_horizon}


def pass_jobs(workload: str, seed: int, index: int) -> list[Job]:
    """Jobs of pass ``index`` of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([int(seed), int(index), WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng)


def _spectrum(p):
    form = p["form"]
    if form == "block":
        return spectra.block_circulant_eigenvalues(
            spectra.BlockCirculantSpec(p["a0"], p["a1"], p["a2"], p["n"], p["m"]))
    if form == "asymmetric":
        return spectra.asymmetric_eigenvalues(p["a1"], p["a2"], p["n"])
    if form == "marginal":
        return spectra.symmetric_eigenvalues(p["a1"], p["a2"], p["n"])
    return spectra.circulant_eigenvalues(spectra.CirculantSpec(p["a0"], p["a1"], p["a2"], p["n"]))


def execute(job: Job) -> Output:
    """Run one job through fracml's public API.

    Functions are looked up on their modules at call time so that the
    traced run's wrappers see every call.
    """
    p = job.params
    if job.kind == "sweep":
        cells = dynamics.sweep(
            p["mode"], p["alpha"], p["n"], p["p1"], p["p2"], simulate=p["simulate"],
            horizon=p["horizon"], seed=p["seed"])
        buf = io.StringIO()
        cli.write_sweep_csv(buf, cells)
        return Output(cells, len(cells), buf.getvalue())
    if job.kind == "spectrum":
        spec = _spectrum(p)
        return Output((spec, stability.classify_spectrum(spec, p["alpha"])), 1)
    if job.kind == "dense":
        spec = spectra.dense_eigenvalues(p["matrix"])
        return Output((spec, stability.classify_spectrum(spec, p["alpha"])), 1)
    if p["system"] == "linear":
        traj = dynamics.simulate_linear(
            p["alpha"], spectra.CirculantSpec(*p["coupling"], p["n"]), p["x0"], p["horizon"])
    else:
        side = dynamics.cubic_map(p["delta"])
        traj = dynamics.simulate_nonlinear(
            p["alpha"], side, dynamics.logistic_map(p["mu"]), side, p["x0"], p["horizon"])
    verdict = dynamics.classify_trajectory(traj)
    buf = io.StringIO()
    cli.write_trajectory_csv(buf, traj)
    return Output((traj, verdict), 1, buf.getvalue())
