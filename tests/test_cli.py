"""End-to-end tests of the command line interface via main(argv)."""

import io
import json
import math
import warnings

import numpy as np
import pytest

from fracml import dynamics, spectra, stability
from fracml.cli import _EMPIRICAL_EXIT, _STATUS_EXIT, main, write_trajectory_csv
from fracml.dynamics import Trajectory
from fracml.stability import symmetric_region


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_unstable_ring(capsys):
    code, out, _ = run(
        capsys, "classify", "--alpha", "0.4",
        "--n", "3", "--a0", "0.2", "--a1", "-0.5", "--a2", "0.1",
    )
    assert code == 1
    assert "overall: unstable" in out
    assert "witness=-0.65+0.0866025" in out
    assert out.count("\n") == 4  # one line per eigenvalue plus the summary


def test_classify_stable_ring(capsys):
    code, out, _ = run(
        capsys, "classify", "--alpha", "0.8",
        "--n", "3", "--a0", "0.2", "--a1", "-0.3", "--a2", "0.1",
    )
    assert code == 0
    assert "overall: stable" in out
    assert "witness=" not in out


def test_classify_asymmetric_mode(capsys):
    code, out, _ = run(
        capsys, "classify", "--alpha", "0.5", "--mode", "asymmetric",
        "--n", "6", "--a1", "0.2", "--a2", "0.1",
    )
    assert code == 0
    assert "overall: stable" in out


@pytest.mark.parametrize("flag", ["--a0", "--a1", "--a2", "--band"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_classify_refuses_non_finite_flags_before_any_output(capsys, flag, value):
    flags = {"--a0": "0.1", "--a1": "0.1", "--a2": "0.1", flag: value}
    code, out, err = run(capsys, "classify", "--alpha", "0.5", "--n", "4", *(f"{k}={v}" for k, v in flags.items()))
    assert code == 3 and out == ""
    assert f"{flag} must be finite" in err


def test_classify_refuses_a_negative_band(capsys):
    code, out, err = run(capsys, "classify", "--alpha", "0.5", "--n", "4", "--a0", "0.1", "--a1", "0.1",
                         "--a2", "0.1", "--band=-1e-7")
    assert code == 3 and out == ""
    assert "--band must be finite and non-negative" in err


def test_classify_decides_before_it_prints(capsys):
    # finite weights whose spectrum holds NaN: refused before any eigenvalue line, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "classify", "--alpha", "0.5", "--n", "4", "--a0", "1e308", "--a1", "0",
                             "--a2=-1e308")
    assert code == 3 and out == ""
    assert "NaN eigenvalues" in err


@pytest.mark.parametrize("argv", [
    ("--n", str(spectra.SITE_CAP + 1), "--a0", "0.1", "--a1", "0.1", "--a2", "0.1"),
    ("--mode", "asymmetric", "--n", str(spectra.SITE_CAP + 1), "--a1", "0.1", "--a2", "0.1"),
    ("--n", str(10**9), "--a0", "0.1", "--a1", "0.1", "--a2", "0.1"),
], ids=["circulant", "asymmetric", "billion"])
def test_classify_refuses_a_ring_above_the_site_cap(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a margin started before the site cap")

    monkeypatch.setattr(stability, "curve_margin", refuse)
    code, out, err = run(capsys, "classify", "--alpha", "0.5", *argv)
    assert code == 3 and out == ""
    assert f"exceed the cap of {spectra.SITE_CAP}" in err


def test_region_symmetric_needs_no_mode_table(capsys):
    code, out, _ = run(capsys, "region", "--mode", "symmetric", "--alpha", "0.5", "--n", str(10**12))
    assert code == 0
    assert out.startswith("label,a2,a1\nQ1,") and out.count("\n") == 5


def test_classify_missing_flags(capsys):
    code, _, err = run(capsys, "classify", "--alpha", "0.5", "--n", "3")
    assert code == 3
    assert "missing required flags" in err


def test_classify_marginal_exit(capsys):
    # eigenvalue exactly at the cusp
    code, out, _ = run(
        capsys, "classify", "--alpha", "0.5",
        "--n", "1", "--a0", "0.0", "--a1", "1.0", "--a2", "0.0",
    )
    assert code == 2
    assert "overall: marginal" in out


def test_classify_matrix_file(capsys, tmp_path):
    p = tmp_path / "m.csv"
    rows = ["-0.3,0.1,0.2", "0.2,-0.3,0.1", "0.1,0.2,-0.3"]
    p.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "classify", "--alpha", "0.8", "--matrix", str(p))
    assert code == 0
    assert "overall: stable" in out


def test_classify_matrix_file_diagnostics(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n1.0,oops\n")
    code, _, err = run(capsys, "classify", "--alpha", "0.5", "--matrix", str(p))
    assert code == 3
    assert f"{p}:2" in err


def test_usage_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--alpha", "0.5", "--frobnicate"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 3


def test_exit_codes_cover_every_verdict():
    # each module's upper-case string constants are its verdict names
    def verdicts(module):
        return {v for k, v in vars(module).items() if k.isupper() and isinstance(v, str)}

    assert set(_STATUS_EXIT) == verdicts(stability) == {"stable", "unstable", "marginal"}
    assert set(_EMPIRICAL_EXIT) == verdicts(dynamics) == {"decaying", "growing", "diverged", "inconclusive"}


def test_boundary_beta_csv(capsys, tmp_path):
    out_file = tmp_path / "beta.csv"
    code, _, _ = run(
        capsys, "boundary", "--alpha", "0.5", "--samples", "1024", "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 1026  # header + samples + closing point
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first == [0.0, 1.0, 0.0]
    assert last[1] == 1.0 and last[2] == 0.0
    mid = [float(v) for v in lines[1 + 512].split(",")]
    assert mid[1] == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-12)
    assert mid[2] == pytest.approx(0.0, abs=1e-12)


def test_boundary_alpha_one_is_unit_circle(capsys):
    code, out, _ = run(capsys, "boundary", "--alpha", "1.0", "--samples", "256")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    xy = np.array([[float(r[1]), float(r[2])] for r in rows])
    assert np.max(np.abs(np.hypot(xy[:, 0], xy[:, 1]) - 1.0)) < 1e-12


def test_boundary_gamma_flags(capsys):
    code, out, _ = run(
        capsys, "boundary", "--alpha", "0.3", "--gamma", "--n", "6", "--j", "1",
        "--samples", "128",
    )
    assert code == 0
    assert out.startswith("t,x,y\n")
    code, _, err = run(capsys, "boundary", "--alpha", "0.3", "--gamma", "--n", "6")
    assert code == 3 and "--j" in err
    code, _, err = run(
        capsys, "boundary", "--alpha", "0.3", "--gamma", "--n", "6", "--j", "3"
    )
    assert code == 3  # sine vanishes, eigenvalue is real


def test_boundary_gamma_infinity(capsys):
    code, out, _ = run(
        capsys, "boundary", "--alpha", "0.3", "--gamma-infinity", "--samples", "128"
    )
    assert code == 0
    assert len(out.splitlines()) == 130


def test_region_symmetric_csv(capsys):
    code, out, _ = run(capsys, "region", "--mode", "symmetric", "--alpha", "0.2", "--n", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label,a2,a1"
    quad = symmetric_region(0.2, 8)
    for line, (label, vertex) in zip(lines[1:], zip(("Q1", "Q2", "Q3", "Q4"), quad.vertices)):
        got = line.split(",")
        assert got[0] == label
        assert float(got[1]) == vertex[0]  # %.17g round-trips exactly
        assert float(got[2]) == vertex[1]


def test_region_requires_n_for_finite_modes(capsys):
    code, _, err = run(capsys, "region", "--mode", "symmetric", "--alpha", "0.2")
    assert code == 3 and "--n" in err


def test_region_thermo_symmetric_needs_no_n(capsys):
    code, out, _ = run(capsys, "region", "--mode", "thermo-symmetric", "--alpha", "0.2")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_region_asymmetric_csv(capsys):
    code, out, _ = run(
        capsys, "region", "--mode", "asymmetric", "--alpha", "0.3", "--n", "6",
        "--samples", "256",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "part,t,x,y"
    parts = {line.split(",")[0] for line in lines[1:]}
    assert parts == {"line", "cardioid"}
    assert sum(1 for line in lines if line.startswith("cardioid")) == 257


def test_region_asymmetric_tiny_lattice(capsys):
    code, out, _ = run(capsys, "region", "--mode", "asymmetric", "--alpha", "0.3", "--n", "2")
    assert code == 0
    lines = out.splitlines()[1:]
    assert all(line.startswith("line") for line in lines)
    assert len(lines) == 4


def test_simulate_linear_config(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "linear", "alpha": 0.8, "n": 3,
        "a0": 0.2, "a1": -0.3, "a2": 0.1,
        "horizon": 600, "seed": 7,
    }))
    out_file = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(out_file))
    assert code == 0
    assert "verdict=decaying" in out
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,site_1,site_2,site_3"
    assert len(lines) == 602
    assert lines[1].startswith("0,")


def test_simulate_trajectory_to_stdout_summary_to_stderr(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "linear", "alpha": 0.8, "n": 2,
        "a0": 0.1, "a1": -0.3, "a2": 0.1, "horizon": 400,
    }))
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert out.startswith("t,site_1,site_2\n")
    assert "verdict=decaying" in err and "verdict" not in out


def test_simulate_explicit_zero_state_stays_zero(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "linear", "alpha": 0.5,
        "a0": 0.2, "a1": -0.5, "a2": 0.1,
        "x0": [0.0, 0.0, 0.0], "horizon": 400,
    }))
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert "final_amplitude=0" in err
    values = {v for line in out.splitlines()[1:] for v in line.split(",")[1:]}
    assert values == {"0"}


def test_simulate_nonlinear_config_and_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "nonlinear", "alpha": 0.4, "n": 7,
        "f0": {"kind": "negated", "of": {"kind": "circle", "delta": -1.2}},
        "f1": {"kind": "logistic", "mu": 1.1},
        "f2": {"kind": "circle", "delta": -1.2},
        "horizon": 500, "seed": 3, "amplitude": 0.01, "positive": True,
    }))
    # alpha override: at 0.8 this ring leaves the origin (growing or diverged)
    code, out, err = run(capsys, "simulate", "--config", str(cfg), "--alpha", "0.8")
    assert code in (1, 2)
    assert "verdict=" in err


def test_simulate_diverged_exit(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "linear", "alpha": 0.9, "n": 3,
        "a0": 0.0, "a1": 4.0, "a2": 0.0,
        "x0": [1.0, 1.0, 1.0], "horizon": 2000, "cutoff": 1e6,
    }))
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert "verdict=diverged" in err


def test_simulate_short_horizon_is_inconclusive(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "linear", "alpha": 0.8, "n": 2,
        "a0": 0.1, "a1": -0.3, "a2": 0.1, "horizon": 50,
    }))
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert "verdict=inconclusive" in err


def test_simulate_byte_identical_reruns(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "linear", "alpha": 0.6, "n": 4,
        "a0": 0.15, "a1": -0.2, "a2": 0.05, "horizon": 300, "seed": 12,
    }))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = run(capsys, "simulate", "--config", str(cfg), "--out", str(a))[0]
    code_b = run(capsys, "simulate", "--config", str(cfg), "--out", str(b))[0]
    assert code_a == code_b
    assert a.read_bytes() == b.read_bytes()


def test_simulate_config_errors(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "linear", "alpha": 0.5, "n": 4,
        "a0": 0.1, "a1": 0.1, "a2": 0.1, "x0": [0.1, 0.2],
    }))
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 3 and "contradicts" in err

    cfg.write_text(json.dumps({"kind": "hyperbolic", "alpha": 0.5, "n": 2}))
    assert run(capsys, "simulate", "--config", str(cfg))[0] == 3

    cfg.write_text("{\n  \"kind\": \"linear\",\n}\n")  # trailing comma
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 3
    assert f"{cfg}:3" in err  # line:column diagnostics

    cfg.write_text("[1, 2]")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 3 and "object" in err

    code, _, err = run(capsys, "simulate", "--config", str(tmp_path / "missing.json"))
    assert code == 3


def test_simulate_oversized_run_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "linear", "alpha": 0.5, "n": 10**6,
        "a0": 0.1, "a1": 0.2, "a2": 0.1, "horizon": 10**4,
    }))
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 3 and out == ""
    assert "MiB" in err
    # too large to draw the initial state at all: refused before it is drawn
    side = {"kind": "linear", "a": 0.1}
    for kind, extra in (("linear", {"a0": 0.1, "a1": 0.2, "a2": 0.1}),
                        ("nonlinear", {"f0": side, "f1": side, "f2": side})):
        cfg.write_text(json.dumps({"kind": kind, "alpha": 0.5, "n": 1e18, "horizon": 10, **extra}))
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 3 and out == ""
        assert "MiB" in err and "Traceback" not in err


def test_trajectory_csv_matches_per_value_writer():
    states = np.array([
        [-0.0, 0.0, 1e-320, -5e-324],
        [1e300, -1.7976931348623157e308, 1e-300, -2.2250738585072014e-308],
        [0.1, -1.0 / 3.0, 123456789.0, 2.0**-1074],
        [math.inf, -math.inf, math.nan, 1.0],
    ])
    states = np.concatenate([states, np.random.default_rng(1).normal(size=(600, 4))])
    buf = io.StringIO()
    write_trajectory_csv(buf, Trajectory(states, 0.5))
    expected = "t,site_1,site_2,site_3,site_4\n" + "".join(
        str(t) + "," + ",".join(format(float(v), ".17g") for v in row) + "\n"
        for t, row in enumerate(states)
    )
    assert buf.getvalue() == expected
    assert "-0,0,9.9998886718268301e-321,-4.9406564584124654e-324\n" in expected


def test_sweep_analytic_csv(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "mode": "symmetric", "alpha": 0.4, "n": 6,
        "p1": {"values": [-0.1, 0.0]},
        "p2": {"min": 0.3, "max": 1.5, "count": 3},
    }))
    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p1,p2,analytic_verdict,empirical_verdict,margin"
    assert len(lines) == 7
    for line in lines[1:]:
        p1, p2, analytic, empirical, margin = line.split(",")
        assert empirical == ""
        assert analytic in ("stable", "unstable", "marginal")
        float(p1), float(p2), float(margin)  # all round-trip


def test_sweep_simulate_flag_and_determinism(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "mode": "logistic-cubic", "alpha": 0.6, "n": 4,
        "p1": {"values": [0.05]},
        "p2": {"values": [-0.1]},
        "horizon": 600, "seed": 5, "threads": 2,
    }))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "sweep", "--config", str(cfg), "--simulate", "--out", str(a))[0] == 0
    assert run(capsys, "sweep", "--config", str(cfg), "--simulate", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    row = a.read_text().splitlines()[1].split(",")
    assert row[2] == "stable" and row[3] == "decaying"


def test_sweep_ignores_the_threads_key(capsys, tmp_path):
    # cells run one after another; a "threads" key, even null, changes nothing
    base = {
        "mode": "asymmetric", "alpha": 0.5, "n": 6,
        "p1": {"values": [0.1, 0.3]}, "p2": {"values": [-0.2, 0.4]},
    }
    cfg = tmp_path / "sweep.json"
    outputs = []
    for extra in ({}, {"threads": None}, {"threads": 4}):
        cfg.write_text(json.dumps({**base, **extra}))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_config_validation(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "mode": "symmetric", "alpha": 0.4, "n": 6,
        "p1": {"values": []},
        "p2": {"values": [0.1]},
    }))
    code, _, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 3 and "p1" in err
    cfg.write_text(json.dumps({
        "mode": "nope", "alpha": 0.4, "n": 6,
        "p1": {"values": [0.1]}, "p2": {"values": [0.1]},
    }))
    assert run(capsys, "sweep", "--config", str(cfg))[0] == 3


_LINEAR_RUN = {"kind": "linear", "alpha": 0.8, "n": 3, "a0": 0.1, "a1": 0.5, "a2": 0.1, "horizon": 500}
_SWEEP = {"mode": "symmetric", "alpha": 0.6, "n": 4,
          "p1": {"values": [0.1]}, "p2": {"min": 0.0, "max": 1.0, "count": 2}}


@pytest.mark.parametrize("command, cfg", [
    ("simulate", {**_LINEAR_RUN, "horizon": "INF"}),
    ("simulate", {**_LINEAR_RUN, "n": "INF"}),
    ("simulate", {**_LINEAR_RUN, "window": "INF"}),
    ("simulate", {**_LINEAR_RUN, "seed": "INF"}),
    ("simulate", {**_LINEAR_RUN, "amplitude": "NAN"}),
    ("simulate", {**_LINEAR_RUN, "x0": [0.1, "NAN", 0.2]}),
    ("simulate", {**_LINEAR_RUN, "a0": "NAN"}),
    ("simulate", {**_LINEAR_RUN, "a1": "NAN"}),
    ("simulate", {**_LINEAR_RUN, "a2": "NAN"}),
    ("sweep", {**_SWEEP, "p2": {"values": [0.1, "NAN"]}}),
    ("sweep", {**_SWEEP, "p2": {"min": 0.0, "max": 1.0, "count": "INF"}}),
    ("sweep", {**_SWEEP, "n": "INF"}),
    ("simulate", {**_LINEAR_RUN, "x0": [None, 0.1, 0.2]}),
    ("simulate", {**_LINEAR_RUN, "x0": ["0.5", 0.1, 0.2]}),
    ("simulate", {**_LINEAR_RUN, "x0": [True, 0.1, 0.2]}),
    ("sweep", {**_SWEEP, "p1": {"values": [0.1, None]}}),
    ("simulate", {**_LINEAR_RUN, "horizon": 10**400}),
    ("simulate", {**_LINEAR_RUN, "x0": [0.1, 10**400, 0.2]}),
    ("sweep", {**_SWEEP, "p2": {"values": [0.1, 10**400]}}),
], ids=["horizon", "n", "window", "seed", "amplitude", "x0", "a0", "a1", "a2",
        "values", "count", "sweep-n", "x0-null", "x0-string", "x0-bool", "values-null",
        "horizon-huge-int", "x0-huge-int", "values-huge-int"])
def test_non_finite_config_numbers_are_usage_errors(capsys, tmp_path, command, cfg):
    # JSON text reads 1e999 as inf and NaN as nan; 10**400 is an integer
    # literal beyond the float range
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"INF"', "1e999").replace('"NAN"', "NaN"))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 3 and out == ""
    assert "finite" in err and "Traceback" not in err


def test_infinite_cutoff_runs_to_the_last_finite_state(capsys, tmp_path):
    # "cutoff": 1e999 means no cutoff: only overflow ends the run
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "linear", "alpha": 0.9, "n": 3, "a0": 0.0, "a1": 4.0, "a2": 0.0,
        "x0": [1.0, 1.0, 1.0], "horizon": 2000, "cutoff": "INF",
    }).replace('"INF"', "1e999"))
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1 and "verdict=diverged" in err
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    assert all(math.isfinite(v) for v in rows[-1])
    assert max(abs(v) for v in rows[-1]) > 1e300  # well past the default cutoff of 1e8
    assert f"steps={len(rows) - 1}" in err


@pytest.mark.parametrize("command, key, cfg", [
    ("simulate", "n", {**_LINEAR_RUN, "n": 3.7}),
    ("simulate", "horizon", {**_LINEAR_RUN, "horizon": 500.9}),
    ("simulate", "window", {**_LINEAR_RUN, "window": 2.5}),
    ("simulate", "seed", {**_LINEAR_RUN, "seed": 7.25}),
    ("simulate", "n", {**_LINEAR_RUN, "x0": [0.1, 0.2, 0.3], "n": 3.5}),
    ("sweep", "n", {**_SWEEP, "n": 4.5}),
    ("sweep", "horizon", {**_SWEEP, "horizon": 400.5}),
    ("sweep", "window", {**_SWEEP, "window": 50.5}),
    ("sweep", "seed", {**_SWEEP, "seed": 1.5}),
    ("sweep", "count", {**_SWEEP, "p2": {"min": 0.0, "max": 1.0, "count": 2.7}}),
], ids=["n", "horizon", "window", "seed", "n-with-x0",
        "sweep-n", "sweep-horizon", "sweep-window", "sweep-seed", "count"])
def test_fractional_integer_keys_are_usage_errors(capsys, tmp_path, command, key, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 3 and out == ""
    assert f"key {key!r} must be a whole number" in err


def test_whole_float_integer_keys_read_as_integers(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    outputs = []
    for number in (int, float):
        run_cfg = {**_LINEAR_RUN, "n": number(3), "horizon": number(500), "window": number(50),
                   "seed": number(7)}
        sweep_cfg = {**_SWEEP, "n": number(4), "horizon": number(400), "window": number(50),
                     "seed": number(7), "p2": {"min": 0.0, "max": 1.0, "count": number(2)}}
        for command, cfg, extra in (("simulate", run_cfg, ()), ("sweep", sweep_cfg, ("--simulate",))):
            path.write_text(json.dumps(cfg))
            code, out, err = run(capsys, command, "--config", str(path), *extra)
            assert code in (0, 1, 2)
            outputs.append((command, code, out, err))
    assert outputs[:2] == outputs[2:]


def test_oversized_axis_count_is_refused_before_allocation(capsys, tmp_path, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("linspace ran")

    monkeypatch.setattr(np, "linspace", spy)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_SWEEP, "p2": {"min": 0.0, "max": 1.0, "count": 1e12}}))
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert code == 3 and out == ""
    assert f"exceeds the cap of {dynamics.ANALYTIC_CELL_CAP}" in err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("boundary", "--alpha", "0.5"),
    ("boundary", "--alpha", "0.5", "--gamma", "--n", "5", "--j", "1"),
    ("boundary", "--alpha", "0.5", "--gamma-infinity"),
    ("region", "--mode", "asymmetric", "--alpha", "0.5", "--n", "5"),
    ("region", "--mode", "thermo-asymmetric", "--alpha", "0.5"),
], ids=["beta", "gamma", "gamma-infinity", "region-asymmetric", "region-thermo"])
def test_oversized_samples_are_refused_before_allocation(capsys, monkeypatch, argv):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("linspace ran")

    monkeypatch.setattr(np, "linspace", spy)
    code, out, err = run(capsys, *argv, "--samples", str(10**12))
    assert code == 3 and out == ""
    assert f"exceed the cap of {stability.SAMPLES_CAP}" in err
    assert calls == []


@pytest.mark.parametrize("command, key, cfg", [
    ("simulate", "positive", {**_LINEAR_RUN, "positive": "false"}),
    ("simulate", "positive", {**_LINEAR_RUN, "positive": 1}),
    ("simulate", "positive", {**_LINEAR_RUN, "positive": None}),
    ("sweep", "simulate", {**_SWEEP, "simulate": "false"}),
    ("sweep", "simulate", {**_SWEEP, "simulate": 0}),
], ids=["positive-string", "positive-number", "positive-null", "simulate-string", "simulate-number"])
def test_flag_keys_accept_only_json_booleans(capsys, tmp_path, command, key, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 3 and out == ""
    assert f"key {key!r} must be true or false" in err


def test_region_thermo_asymmetric_csv(capsys, tmp_path):
    out_file = tmp_path / "region.csv"
    code, out, _ = run(capsys, "region", "--mode", "thermo-asymmetric", "--alpha", "0.3",
                       "--samples", "256", "--out", str(out_file))
    assert code == 0 and out == ""
    lines = out_file.read_text().splitlines()
    assert lines[0] == "part,t,x,y"
    assert sum(1 for line in lines if line.startswith("cardioid")) == 257
    assert sum(1 for line in lines if line.startswith("line")) == 2


def test_simulate_scaled_maps(capsys, tmp_path):
    # scaling by -1 is the negation, so both configs write the same run
    circle = {"kind": "circle", "delta": -1.2}
    base = {"kind": "nonlinear", "alpha": 0.4, "n": 5, "horizon": 400, "seed": 3,
            "f1": {"kind": "scaled", "c": 0.5, "of": {"kind": "logistic", "mu": 2.2}}, "f2": circle}
    path = tmp_path / "cfg.json"
    results = []
    for f0 in ({"kind": "scaled", "c": -1.0, "of": circle}, {"kind": "negated", "of": circle}):
        path.write_text(json.dumps({**base, "f0": f0}))
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code in (0, 1, 2) and "verdict=" in err
        results.append((code, out, err))
    assert results[0] == results[1]
    assert len(results[0][1].splitlines()) == 402


@pytest.mark.parametrize("text, message", [
    ("", "empty matrix file"),
    ("\n  \n\n", "empty matrix file"),
    ("1.0,2.0\n3.0\n", "expected 2 columns, got 1"),
], ids=["empty", "blank", "ragged"])
def test_classify_bad_matrix_files(capsys, tmp_path, text, message):
    p = tmp_path / "m.csv"
    p.write_text(text)
    code, out, err = run(capsys, "classify", "--alpha", "0.5", "--matrix", str(p))
    assert code == 3 and out == ""
    assert message in err


_NONLINEAR_RUN = {"kind": "nonlinear", "alpha": 0.5, "n": 3, "horizon": 400,
                  "f0": {"kind": "linear", "a": 0.1}, "f1": {"kind": "linear", "a": 0.2},
                  "f2": {"kind": "linear", "a": 0.1}}


@pytest.mark.parametrize("command, cfg, message", [
    ("simulate", {k: v for k, v in _LINEAR_RUN.items() if k != "alpha"}, "missing required key 'alpha'"),
    ("simulate", {**_LINEAR_RUN, "a1": "0.5"}, "key 'a1' must be a number"),
    ("simulate", {**_NONLINEAR_RUN, "f1": [0.2]}, "map spec must be an object"),
    ("simulate", {**_NONLINEAR_RUN, "f2": {"kind": "tent", "a": 0.1}}, "unknown map kind 'tent'"),
    ("simulate", {**_NONLINEAR_RUN, "f0": {"kind": "cubic", "mu": 0.1}}, "missing required key 'delta'"),
    ("sweep", {**_SWEEP, "p2": {"min": 0.0, "max": 1.0, "count": 0}}, "need count >= 1 and max >= min"),
    ("sweep", {**_SWEEP, "p2": {"min": 1.0, "max": 0.0, "count": 2}}, "need count >= 1 and max >= min"),
    ("sweep", {**_SWEEP, "p2": {}}, "missing required key 'min'"),
    ("sweep", {k: v for k, v in _SWEEP.items() if k != "p2"}, "expected an object with values or min/max/count"),
], ids=["missing-key", "not-a-number", "map-not-object", "unknown-map-kind", "map-param-key",
        "count-zero", "max-below-min", "axis-empty", "axis-missing"])
def test_config_errors_name_their_cause(capsys, tmp_path, command, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 3 and out == ""
    assert message in err and "Traceback" not in err
