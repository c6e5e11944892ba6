"""Tests of the benchmark itself: generators, checkers and the span recorder.

Run from the checkout root:  python3 -m pytest -q bench/tests
"""

import dataclasses
import io
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, self_times  # noqa: E402

import fracml  # noqa: E402
from fracml import cli, dynamics, spectra  # noqa: E402


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _shape(value):
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return ("seq", len(value))
    if isinstance(value, np.ndarray):
        return ("array", value.shape)
    return type(value).__name__


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for index in (0, 3):
        a = workloads.pass_jobs(workload, 11, index)
        b = workloads.pass_jobs(workload, 11, index)
        assert [j.name for j in a] == [j.name for j in b]
        assert all(_same(x.params, y.params) for x, y in zip(a, b))
    other = workloads.pass_jobs(workload, 12, 0)
    first = workloads.pass_jobs(workload, 11, 0)
    assert not all(_same(x.params, y.params) for x, y in zip(first, other))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_shapes_do_not_depend_on_the_seed(workload):
    a = workloads.pass_jobs(workload, 1, 0)
    b = workloads.pass_jobs(workload, 2, 5)
    assert [(j.name, j.kind, j.shape) for j in a] == [(j.name, j.kind, j.shape) for j in b]
    assert [_shape(j.params) for j in a] == [_shape(j.params) for j in b]


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.pass_jobs("no-such-workload", 1, 0)


def _job(workload, prefix, seed=3):
    return next(j for j in workloads.pass_jobs(workload, seed, 0) if j.name.startswith(prefix))


def _small_trajectory_job(system="linear"):
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-0.01, 0.01, 4)
    if system == "linear":
        params = dict(system="linear", alpha=0.6, coupling=(0.1, 0.4, -0.05), n=4, x0=x0, horizon=600)
    else:
        params = dict(system="nonlinear", alpha=0.6, n=4, mu=0.5, delta=0.03, x0=x0, horizon=600)
    return workloads.Job(f"small-{system}", "trajectory", (system, 4, 600), params)


def _with_states(out, states, diverged=False):
    traj = dynamics.Trajectory(np.array(states), out.value[0].alpha, diverged)
    buf = io.StringIO()
    cli.write_trajectory_csv(buf, traj)
    return workloads.Output((traj, out.value[1]), 1, buf.getvalue())


@pytest.mark.parametrize("system", ["linear", "nonlinear"])
def test_trajectory_checker_rejects_a_perturbed_row(system):
    job = _small_trajectory_job(system)
    out = workloads.execute(job)
    assert checks.check(job, out).ok
    rows = checks.sampled_steps(len(out.value[0].states), 0)
    for row in (len(out.value[0].states) - 1, rows[len(rows) // 2]):
        states = np.array(out.value[0].states)
        states[row, 1] *= 1.0 + 1e-6
        report = checks.check(job, _with_states(out, states))
        assert any("recurrence" in f for f in report.failures), report.failures


def test_trajectory_checker_rejects_a_wrong_verdict_and_divergence_flag():
    job = _small_trajectory_job()
    out = workloads.execute(job)
    assert out.value[1] == "decaying"
    wrong = workloads.Output((out.value[0], "growing"), 1, out.csv)
    assert not checks.check(job, wrong).ok
    flagged = _with_states(out, out.value[0].states, diverged=True)
    flagged.value = (flagged.value[0], "diverged")
    assert any("diverged=True" in f for f in checks.check(job, flagged).failures)


def test_diverging_trajectory_passes_its_checks():
    job = _job("long-horizon", "linear-5x5000-diverging")
    out = workloads.execute(job)
    assert out.value[0].diverged and out.value[1] == "diverged"
    assert checks.check(job, out).ok


def test_trajectory_checker_rejects_a_truncated_csv_row():
    job = _small_trajectory_job()
    out = workloads.execute(job)
    lines = out.csv.split("\n")
    lines[300] = lines[300].rsplit(",", 1)[0]
    cut = workloads.Output(out.value, 1, "\n".join(lines))
    assert any("CSV" in f for f in checks.check(job, cut).failures)
    # a row whose last number lost digits still parses, but not to the same float
    lines = out.csv.split("\n")
    lines[300] = lines[300][:-3]
    short = workloads.Output(out.value, 1, "\n".join(lines))
    assert any("round-trip" in f for f in checks.check(job, short).failures)


def test_sweep_checker_rejects_a_flipped_cell_verdict_and_truncated_csv():
    job = _job("analytic-map", "sweep-symmetric")
    out = workloads.execute(job)
    assert checks.check(job, out).ok
    cells = list(out.value)
    k = next(i for i, c in enumerate(cells) if c.analytic == "stable")
    cells[k] = dataclasses.replace(cells[k], analytic="unstable")
    buf = io.StringIO()
    cli.write_sweep_csv(buf, cells)
    report = checks.check(job, workloads.Output(cells, len(cells), buf.getvalue()))
    assert any(f"cell {k}" in f for f in report.failures), report.failures
    lines = out.csv.split("\n")
    lines[5] = lines[5][: len(lines[5]) // 2]
    report = checks.check(job, workloads.Output(out.value, len(out.value), "\n".join(lines)))
    assert any("CSV" in f for f in report.failures), report.failures


def test_sweep_checker_rejects_a_flipped_empirical_verdict():
    job = _job("sim-sweep", "simsweep-symmetric-4")
    out = workloads.execute(job)
    assert checks.check(job, out).ok
    k = job.params["seed"] % len(out.value)  # the cell the checker re-simulates
    cells = list(out.value)
    flipped = "growing" if cells[k].empirical != "growing" else "decaying"
    cells[k] = dataclasses.replace(cells[k], empirical=flipped)
    buf = io.StringIO()
    cli.write_sweep_csv(buf, cells)
    report = checks.check(job, workloads.Output(cells, len(cells), buf.getvalue()))
    assert any("empirical" in f for f in report.failures), report.failures


@pytest.mark.parametrize("prefix", ["spectrum-circulant-512", "spectrum-block", "dense-20"])
def test_spectrum_checker_rejects_a_wrong_eigenvalue(prefix):
    job = _job("analytic-map", prefix)
    out = workloads.execute(job)
    assert checks.check(job, out).ok
    spec, verdict = out.value
    vals = np.array(spec.eigenvalues)
    vals[3] += 1e-3
    bad = workloads.Output((spectra.Spectrum(vals, spec.source), verdict), 1)
    assert not checks.check(job, bad).ok


def test_spectrum_checker_rejects_a_flipped_verdict():
    job = _job("analytic-map", "spectrum-circulant-1000")
    spec, verdict = workloads.execute(job).value
    flipped = dataclasses.replace(verdict, status="stable" if verdict.status == "unstable" else "unstable")
    assert not checks.check(job, workloads.Output((spec, flipped), 1)).ok


def test_marginal_job_is_marginal_and_checked():
    job = _job("analytic-map", "spectrum-marginal")
    out = workloads.execute(job)
    assert out.value[1].status == "marginal"
    report = checks.check(job, out)
    assert report.ok and report.checked == 2


def test_exact_membership_matches_known_points():
    alpha = 0.5
    lo = 1.0 - 2.0**alpha
    inside, uncertain, _ = checks.membership([0.0, lo + 0.01, lo - 0.01, 1.0 + 2j, 1.0 + 1j, 1.0], alpha)
    # 1 + 1j lies on the alpha = 1/2 curve: arg pi/2 gives t = pi/3, r = 1
    assert inside.tolist() == [True, True, False, False, False, False]
    assert uncertain.tolist() == [False, False, False, False, True, True]


def test_recorder_keeps_parents_across_the_sweep_pool():
    recorder = Recorder()
    original = dynamics.simulate_linear
    names = recorder.install(fracml)
    try:
        assert "dynamics.simulate_linear" in names
        recorder.set_job(7)
        dynamics.sweep("symmetric", 0.6, 4, [0.01, 0.02], [0.3, 0.5], simulate=True,
                       horizon=400, threads=2)
    finally:
        recorder.uninstall()
    assert dynamics.simulate_linear is original
    spans = recorder.spans()
    sweep = [s for s in spans if s[2] == "dynamics.sweep"]
    sims = [s for s in spans if s[2] == "dynamics.simulate_linear"]
    assert len(sweep) == 1 and len(sims) == 4
    assert all(s[1] == sweep[0][0] for s in sims)
    assert all(s[5] == 7 for s in spans)
    by_id = {s[0]: s for s in spans}
    conv = [s for s in spans if s[2] == "fractional.memory_convolution"]
    assert conv and all(by_id[s[1]][2] == "dynamics.simulate_linear" for s in conv)
    own = self_times(spans)
    assert all(own[s[0]] >= -1e-9 for s in spans)
    assert own[sweep[0][0]] < sweep[0][4] - sweep[0][3]
