"""Command line front end.

Subcommands: classify, boundary, region, simulate, sweep.  Output is
UTF-8 CSV (17 significant digits, round-trip safe) on stdout or behind
--out; verdict-producing commands use the exit code to report stable
(0), unstable or diverged (1), marginal or inconclusive (2).  Usage and
input errors exit 3.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys

import numpy as np

from . import dynamics, spectra, stability

USAGE_EXIT = 3

_STATUS_EXIT = {"stable": 0, "unstable": 1, "marginal": 2}
_EMPIRICAL_EXIT = {"decaying": 0, "growing": 1, "diverged": 1, "inconclusive": 2}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which collides with the marginal
    # verdict code; route usage failures to 3 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


_CSV_ROWS = 256  # rows per write; bounds the Python floats alive at once


def _write_csv(fh, header: str, line: str, rows) -> None:
    """Write ``header``, then ``line % tuple(row)`` for each row of ``rows``.

    CSV floats go through "%.17g", which round-trips every binary64 value.
    """
    fh.write(header)
    rows = iter(rows)
    while block := list(itertools.islice(rows, _CSV_ROWS)):
        fh.write("".join([line % tuple(row) for row in block]))


def write_boundary_csv(fh, curve: stability.BoundaryCurve) -> None:
    _write_csv(fh, "t,x,y\n", "%.17g,%.17g,%.17g\n",
               np.column_stack((curve.t, curve.xy)).tolist())


def write_vertices_csv(fh, quad: stability.Quadrilateral) -> None:
    _write_csv(fh, "label,a2,a1\n", "%s,%.17g,%.17g\n",
               ((label, *v) for label, v in zip(("Q1", "Q2", "Q3", "Q4"), quad.vertices)))


def write_asymmetric_region_csv(
    fh, region: stability.AsymmetricRegion, curve: stability.BoundaryCurve | None
) -> None:
    """Region CSV; ``curve`` is the sampled boundary, None when n <= 2."""
    if curve is not None:
        ys = curve.xy[:, 1]
        rows = [("line", 0, 1.0, np.min(ys)), ("line", 1, 1.0, np.max(ys))]
        rows += [("cardioid", *row) for row in np.column_stack((curve.t, curve.xy)).tolist()]
    else:
        # n <= 2: the region is the strip between two vertical lines
        rows = [("line", t, x, y) for x in (region.interval.lo, region.interval.hi)
                for t, y in ((0, -1.0), (1, 1.0))]
    _write_csv(fh, "part,t,x,y\n", "%s,%.17g,%.17g,%.17g\n", rows)


def write_trajectory_csv(fh, traj: dynamics.Trajectory) -> None:
    states = traj.states
    # rows become Python floats a block at a time
    blocks = (states[s:s + _CSV_ROWS].tolist() for s in range(0, len(states), _CSV_ROWS))
    _write_csv(fh, "t," + ",".join(f"site_{k + 1}" for k in range(traj.sites)) + "\n",
               "%d" + ",%.17g" * traj.sites + "\n",
               ((t, *row) for t, row in enumerate(itertools.chain.from_iterable(blocks))))


def write_sweep_csv(fh, cells) -> None:
    _write_csv(fh, "p1,p2,analytic_verdict,empirical_verdict,margin\n", "%.17g,%.17g,%s,%s,%.17g\n",
               ((c.p1, c.p2, c.analytic, c.empirical or "", c.margin) for c in cells))


def _matrix_from_csv(path: str) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not a numeric CSV row: {line!r}") from exc
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
    return np.asarray(rows, dtype=float)


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: top level must be an object")
    return cfg


def _float(v) -> float:
    # a JSON integer beyond the float range reads as the infinity it rounds to
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _cfg_num(cfg: dict, key: str, where: str, default=None, required: bool = False) -> float:
    if key not in cfg:
        if required:
            raise ValueError(f"{where}: missing required key {key!r}")
        return default
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{where}: key {key!r} must be a number, got {v!r}")
    x = _float(v)
    # JSON reads 1e999 as inf and accepts NaN; a cutoff of +inf means "no cutoff"
    if not (math.isfinite(x) or (key == "cutoff" and x == math.inf)):
        raise ValueError(f"{where}: key {key!r} must be finite, got {x!r}")
    return x


def _cfg_int(cfg: dict, key: str, where: str, default=None, required: bool = False) -> int:
    """An integer key: a finite number with no fractional part (3.0 reads as 3)."""
    x = _cfg_num(cfg, key, where, default, required)
    if key not in cfg:
        return x
    if not x.is_integer():
        raise ValueError(f"{where}: key {key!r} must be a whole number, got {cfg[key]!r}")
    return int(x)


def _cfg_bool(cfg: dict, key: str, where: str) -> bool:
    v = cfg.get(key, False)
    if not isinstance(v, bool):
        raise ValueError(f"{where}: key {key!r} must be true or false, got {v!r}")
    return v


def _cfg_list(cfg: dict, key: str, where: str) -> np.ndarray:
    vals = cfg[key]
    # entries are checked as _cfg_num checks a scalar: no bools, strings or null
    if isinstance(vals, list) and vals and not any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in vals
    ):
        x = np.asarray([_float(v) for v in vals])
        if np.isfinite(x).all():
            return x
    raise ValueError(f"{where}: {key!r} must be a non-empty list of finite numbers")


def _map_from_config(obj, where: str) -> dynamics.MapSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"{where}: map spec must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "negated":
        return dynamics.negated_map(_map_from_config(obj.get("of"), f"{where}.of"))
    if not isinstance(kind, str) or kind not in dynamics.MAP_KINDS:
        raise ValueError(f"{where}: unknown map kind {kind!r}")
    param = _cfg_num(obj, dynamics.MAP_KINDS[kind][0], where, required=True)
    base = _map_from_config(obj.get("of"), f"{where}.of") if kind == "scaled" else None
    return dynamics.MapSpec(kind, param, base)


def _axis_values(obj, where: str) -> np.ndarray:
    if isinstance(obj, dict) and "values" in obj:
        return _cfg_list(obj, "values", where)
    if isinstance(obj, dict):
        lov = _cfg_num(obj, "min", where, required=True)
        hiv = _cfg_num(obj, "max", where, required=True)
        count = _cfg_int(obj, "count", where, required=True)
        if count < 1 or hiv < lov:
            raise ValueError(f"{where}: need count >= 1 and max >= min")
        if count > dynamics.ANALYTIC_CELL_CAP:  # checked before linspace allocates the axis
            raise ValueError(f"{where}: count {count} exceeds the cap of {dynamics.ANALYTIC_CELL_CAP}")
        return np.linspace(lov, hiv, count)
    raise ValueError(f"{where}: expected an object with values or min/max/count")


def cmd_classify(args) -> int:
    band = args.band
    for flag in ("a0", "a1", "a2"):
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{flag} must be finite, got {value!r}")
    if not 0.0 <= band < math.inf:
        raise ValueError(f"--band must be finite and non-negative, got {band!r}")
    if args.matrix is not None:
        spec = spectra.dense_eigenvalues(_matrix_from_csv(args.matrix))
    elif args.mode == "asymmetric":
        _require_args(args, "n", "a1", "a2")
        spec = spectra.asymmetric_eigenvalues(args.a1, args.a2, args.n)
    else:
        _require_args(args, "n", "a0", "a1", "a2")
        spec = spectra.circulant_eigenvalues(spectra.CirculantSpec(args.a0, args.a1, args.a2, args.n))
    # one margin pass; an empty or NaN spectrum is refused before any output
    values, margins = stability._spectrum_margins(spec, args.alpha)
    overall = stability._worst(values, margins, band)
    # eigenvalues become Python floats a block at a time
    order = spec.canonical_order()
    blocks = (order[s:s + _CSV_ROWS] for s in range(0, len(order), _CSV_ROWS))
    rows = ((re, im, stability.margin_status(m, band), m) for i in blocks
            for re, im, m in zip(values[i].real.tolist(), values[i].imag.tolist(), margins[i].tolist()))
    _write_csv(sys.stdout, "", "%.12g%+.12gj  %s  margin=%.6g\n", rows)
    line = f"overall: {overall.status}  margin={overall.margin:.6g}"
    if overall.witness is not None:
        line += "  witness=%.12g%+.12gj" % (overall.witness.real, overall.witness.imag)
    print(line)
    return _STATUS_EXIT[overall.status]


def _require_args(args, *names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join('--' + n for n in missing)}")


def cmd_boundary(args) -> int:
    if args.gamma_infinity:
        curve = stability.boundary_gamma_infinity(args.alpha, args.samples)
    elif args.gamma:
        _require_args(args, "n", "j")
        curve = stability.boundary_gamma(args.alpha, args.n, args.j, args.samples)
    else:
        curve = stability.boundary_beta(args.alpha, args.samples)
    with _open_out(args.out) as fh:
        write_boundary_csv(fh, curve)
    return 0


def cmd_region(args) -> int:
    if args.mode in ("symmetric", "asymmetric"):
        _require_args(args, "n")
    curve = None
    if args.mode == "symmetric":
        region = stability.symmetric_region(args.alpha, args.n)
    elif args.mode == "thermo-symmetric":
        region = stability.thermodynamic_region(args.alpha, "symmetric")
    elif args.mode == "asymmetric":
        region = stability.asymmetric_region(args.alpha, args.n)
        if region.j is not None:
            curve = stability.boundary_gamma(args.alpha, args.n, region.j, args.samples)
    else:
        region = stability.thermodynamic_region(args.alpha, "asymmetric")
        curve = stability.boundary_gamma_infinity(args.alpha, args.samples)
    with _open_out(args.out) as fh:
        if isinstance(region, stability.Quadrilateral):
            write_vertices_csv(fh, region)
        else:
            write_asymmetric_region_csv(fh, region, curve)
    return 0


def _simulate_from_config(cfg: dict, where: str) -> tuple[dynamics.Trajectory, float, int]:
    kind = cfg.get("kind")
    if kind not in ("linear", "nonlinear"):
        raise ValueError(f"{where}: 'kind' must be 'linear' or 'nonlinear'")
    alpha = _cfg_num(cfg, "alpha", where, required=True)
    horizon = _cfg_int(cfg, "horizon", where, default=2000)
    seed = _cfg_int(cfg, "seed", where, default=dynamics.DEFAULT_SEED)
    amplitude = _cfg_num(cfg, "amplitude", where, default=dynamics.DEFAULT_AMPLITUDE)
    base = _cfg_num(cfg, "base", where, default=0.0)
    cutoff = _cfg_num(cfg, "cutoff", where, default=dynamics.DIVERGENCE_CUTOFF)
    window = _cfg_int(cfg, "window", where, default=100)
    positive = _cfg_bool(cfg, "positive", where)
    if "x0" in cfg:
        x0 = _cfg_list(cfg, "x0", where)
        n = len(x0)
        if "n" in cfg and _cfg_int(cfg, "n", where) != n:
            raise ValueError(f"{where}: 'n' contradicts len(x0)")
    else:
        n = _cfg_int(cfg, "n", where, required=True)
        dynamics.check_run(horizon, (n,), modes=kind == "linear")  # before the state is drawn
        x0 = dynamics.seeded_state(n, base, amplitude, seed, positive)
    if kind == "linear":
        spec = spectra.CirculantSpec(
            _cfg_num(cfg, "a0", where, required=True),
            _cfg_num(cfg, "a1", where, required=True),
            _cfg_num(cfg, "a2", where, required=True),
            n,
        )
        traj = dynamics.simulate_linear(alpha, spec, x0, horizon, cutoff)
    else:
        f0 = _map_from_config(cfg.get("f0"), f"{where}.f0")
        f1 = _map_from_config(cfg.get("f1"), f"{where}.f1")
        f2 = _map_from_config(cfg.get("f2"), f"{where}.f2")
        traj = dynamics.simulate_nonlinear(alpha, f0, f1, f2, x0, horizon, cutoff)
    return traj, base, window


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    for key, val in (("alpha", args.alpha), ("horizon", args.horizon), ("seed", args.seed)):
        if val is not None:
            cfg[key] = val
    traj, base, window = _simulate_from_config(cfg, args.config)
    if traj.diverged or traj.horizon >= 4 * window:
        verdict = dynamics.classify_trajectory(traj, window, base)
    else:
        verdict = dynamics.INCONCLUSIVE  # too short for the window rule
    amplitude = float(np.max(np.abs(traj.states[-1] - base)))
    with _open_out(args.out) as fh:
        write_trajectory_csv(fh, traj)
    summary = f"verdict={verdict} final_amplitude={amplitude:.6g} steps={traj.horizon}"
    # keep the summary off the CSV stream when it goes to stdout
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return _EMPIRICAL_EXIT[verdict]


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    where = args.config
    mode = cfg.get("mode")
    alpha = _cfg_num(cfg, "alpha", where, required=True)
    n = _cfg_int(cfg, "n", where, required=True)
    p1 = _axis_values(cfg.get("p1"), f"{where}.p1")
    p2 = _axis_values(cfg.get("p2"), f"{where}.p2")
    # only the keys the config sets: sweep's own defaults fill the rest
    opts = {key: _cfg_int(cfg, key, where) for key in ("horizon", "window", "seed") if key in cfg}
    if "amplitude" in cfg:
        opts["amplitude"] = _cfg_num(cfg, "amplitude", where)
    cells = dynamics.sweep(
        mode if mode is not None else "", alpha, n, p1, p2,
        simulate=_cfg_bool(cfg, "simulate", where) or args.simulate, **opts,
    )
    with _open_out(args.out) as fh:
        write_sweep_csv(fh, cells)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fracml", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="stability verdict for a coupling spectrum")
    p.add_argument("--alpha", type=float, required=True, help="fractional order in (0, 1]")
    p.add_argument("--mode", choices=("circulant", "asymmetric"), default="circulant")
    p.add_argument("--n", type=int, help="lattice size")
    p.add_argument("--a0", type=float, help="left-neighbor weight")
    p.add_argument("--a1", type=float, help="self weight")
    p.add_argument("--a2", type=float, help="right-neighbor weight")
    p.add_argument("--matrix", help="CSV file with an explicit square matrix")
    p.add_argument("--band", type=float, default=stability.BOUNDARY_BAND)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("boundary", help="sample a stability boundary curve as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--samples", type=int, default=stability.DEFAULT_SAMPLES)
    p.add_argument("--gamma", action="store_true", help="coupling-plane curve for mode --j of a ring of size --n")
    p.add_argument("--gamma-infinity", action="store_true", help="large-lattice coupling-plane curve")
    p.add_argument("--n", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("region", help="stable coupling region description as CSV")
    p.add_argument("--mode", required=True,
                   choices=("symmetric", "asymmetric", "thermo-symmetric", "thermo-asymmetric"))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--samples", type=int, default=stability.DEFAULT_SAMPLES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("simulate", help="run a lattice from a JSON config, emit trajectory CSV")
    p.add_argument("--config", required=True, help="JSON run description")
    p.add_argument("--alpha", type=float, help="override config alpha")
    p.add_argument("--horizon", type=int, help="override config horizon")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="two-parameter stability map from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--simulate", action="store_true", help="add empirical verdicts")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"fracml: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
