"""fracml benchmark: timed passes over one workload, checked outputs.

Usage, from the root of a fracml checkout:

    python3 bench/run.py --workload analytic-map --seed 1 --seconds 30 --trace 0

``--trace 0`` runs untraced passes for ``--seconds`` seconds of job time
and reports the end-to-end metrics, with job times corrected for the
host's speed (see ``reference_s``).  ``--trace 1`` spends half of that
untraced and half replaying the same passes with span recorders on
fracml's functions, and reports the per-layer metrics.  Every job's
output is checked outside the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  A
record of the run, with the machine and build it ran on, is written to
``.bench_out/`` under the checkout.

The program under test is imported from ``src/`` of the checkout, never
from an installed copy; without it the benchmark exits with a non-zero
status before running anything.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
# Time of one reference_s() call when the host is not slowed by other
# tenants (its lower quartile on a 2-vCPU Intel Xeon VM).
REFERENCE_NOMINAL_S = 3.4e-3
LAYER_MODULES = ("fractional", "spectra", "eig", "stability", "dynamics", "cli")


def _import_program():
    if not (SRC / "fracml" / "__init__.py").is_file():
        sys.exit(f"bench: no fracml sources at {SRC / 'fracml'}; run from a fracml checkout")
    sys.path.insert(0, str(SRC))
    import fracml

    if Path(fracml.__file__).resolve().parent != (SRC / "fracml").resolve():
        sys.exit(f"bench: imported fracml from {fracml.__file__}, not from {SRC}")
    return fracml


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FRACML_THREADS")
    return {
        "cpu_model": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in threads},
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports fracml and exits."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", "import fracml"], env=env, cwd=ROOT,
                                 stdin=subprocess.DEVNULL)
        # wait() with a timeout polls in sleeps of up to 50 ms, which would
        # round the time up; a timer kills a hung child instead
        watchdog = threading.Timer(60.0, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, child.args)
    return statistics.median(times)


_REF_W = np.linspace(1.0, 0.0, 1200)
_REF_H = np.ones((1200, 3))


def reference_s() -> float:
    """Wall time of a fixed, fracml-free loop: small numpy matvecs and
    interpreted arithmetic, the two kinds of work fracml's jobs do.

    On a shared host the machine's speed moves by up to half in phases
    of seconds to minutes, and it moves the loop and the jobs alike.
    The loop runs right before and right after every job; the job's
    corrected time is its wall time scaled by REFERENCE_NOMINAL_S over
    the mean of the two.  End-to-end timings are corrected times: the
    job's wall time at the host's quiet speed.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(100, 1200, 8):
        acc += float((_REF_W[k::-1] @ _REF_H[: k + 1])[0])
    for i in range(36000):
        acc += i * 0.5
    return time.perf_counter() - t0


class Tally:
    """Job times, verdicts and check outcomes of one phase."""

    def __init__(self):
        self.pass_times: list[float] = []
        self.pass_corrected: list[float] = []
        self.pass_verdicts: list[int] = []
        self.job_times: list[float] = []
        self.job_corrected: list[float] = []
        self.references: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.checked = 0
        self.unchecked = 0
        self.analytic = Counter()
        self.empirical = Counter()

    def record_verdicts(self, job, out) -> None:
        if job.kind == "sweep":
            for c in out.value:
                self.analytic[c.analytic] += 1
                if c.empirical is not None:
                    self.empirical[c.empirical] += 1
        elif job.kind == "trajectory":
            self.empirical[out.value[1]] += 1
        else:
            self.analytic[out.value[1].status] += 1


def run_passes(workload, seed, budget, tally, recorder=None, job_ids=None):
    """Run whole passes until ``budget`` seconds of job time are spent."""
    import checks
    import workloads

    reference_s()  # warm the loop's code and arrays
    index = 0
    while index == 0 or sum(tally.pass_times) < budget:
        spent = 0.0
        spent_corrected = 0.0
        verdicts = 0
        for job in workloads.pass_jobs(workload, seed, index):
            tally.attempted += 1
            if recorder is not None:
                recorder.set_job(next(job_ids))
            before = reference_s()
            t0 = time.perf_counter()
            try:
                out = workloads.execute(job)
            except Exception:  # a job that raises counts as failed; keep going
                spent += time.perf_counter() - t0
                tally.failed += 1
                tally.failures.append(f"{job.name}: raised\n{traceback.format_exc()}")
                continue
            dt = time.perf_counter() - t0
            after = reference_s()
            spent += dt
            tally.job_times.append(dt)
            tally.job_corrected.append(dt * REFERENCE_NOMINAL_S / ((before + after) / 2.0))
            spent_corrected += tally.job_corrected[-1]
            tally.references += [before, after]
            verdicts += out.verdicts
            tally.record_verdicts(job, out)
            try:
                report = checks.check(job, out)
            except Exception:
                tally.failed += 1
                tally.failures.append(f"{job.name}: check raised\n{traceback.format_exc()}")
                continue
            tally.checked += report.checked
            tally.unchecked += report.unchecked
            if not report.ok:
                tally.failed += 1
                tally.failures.extend(report.failures)
        tally.pass_times.append(spent)
        tally.pass_corrected.append(spent_corrected)
        tally.pass_verdicts.append(verdicts)
        index += 1


def end_to_end(workload, tally, setup_s) -> tuple[dict, dict]:
    import workloads

    total = sum(tally.pass_times)
    corrected = tally.job_corrected
    tail_q = workloads.TAIL_PERCENTILE[workload]
    tail = float(np.percentile(corrected, tail_q))
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (sum(tally.pass_verdicts) / sum(corrected), "1/s"),
        "job_ms_p50": (1e3 * statistics.median(corrected), "ms"),
        "job_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # the uncorrected figures, for reading against the corrected ones
    notes = {
        "job_ms_tail_percentile": tail_q,
        "jobs": len(corrected),
        "jobs_beyond_tail": sum(t > tail for t in corrected),
        "passes": len(tally.pass_times),
        "measured_s": total,
        "wall_verdicts_per_s": sum(tally.pass_verdicts) / total,
        "wall_job_ms_p50": 1e3 * statistics.median(tally.job_times),
        "reference_ms_median": 1e3 * statistics.median(tally.references),
        "reference_ms_min": 1e3 * min(tally.references),
    }
    return metrics, notes


def per_layer(spans, registered, untraced: Tally, traced: Tally) -> dict:
    """Per-layer metrics from the traced passes, per pass where they add up."""
    from spans import self_times

    passes = len(traced.pass_times)
    analytic = untraced.analytic + traced.analytic
    empirical = untraced.empirical + traced.empirical
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)

    def calls(name):
        return len(by_name[name]) / passes

    def self_s(name):
        return sum(own[s[0]] for s in by_name[name]) / passes

    def work(name, i=None):
        vals = [s[6] if i is None else s[6][i] for s in by_name[name]]
        return sum(vals) / passes

    def span_s(name):
        return sum(s[4] - s[3] for s in by_name[name]) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def put(key, value, unit):
        m[key] = (value, unit)

    # span name -> (calls key, self-time key, extra work stat or None);
    # a function missing from fracml is not registered and gets no metrics
    counted = {
        "fractional.memory_convolution": ("calls", "self_s", None),
        "fractional.kernel_weights": ("calls", "self_s", None),
        "spectra.closed_form": ("calls", "self_s", "eigenvalues"),
        "eig.eigvals": ("calls", "self_s", "n_cubed"),
        "stability.boundary": ("calls", "self_s", "samples"),
        "stability.eigenvalue_in_region": ("calls", "self_s", None),
        "stability.classify_spectrum": ("calls", "self_s", None),
        "stability.region.build": ("stability.region.build_calls", "stability.region.build_s", None),
        "stability.region.classify":
            ("stability.region.classify_calls", "stability.region.classify_s", None),
        "dynamics.simulate_linear": ("calls", "self_s", None),
        "dynamics.simulate_nonlinear": ("calls", "self_s", None),
        "dynamics.sweep": ("calls", "self_s", "cells"),
        "dynamics.classify_trajectory": ("calls", "self_s", None),
        "cli.write_csv": ("calls", "self_s", None),
    }
    for name, (ckey, skey, stat) in counted.items():
        if name not in registered:
            continue
        put(ckey if "." in ckey else f"{name}.{ckey}", calls(name), "count")
        put(skey if "." in skey else f"{name}.{skey}", self_s(name), "s")
        if stat:
            put(f"{name}.{stat}", work(name), "count")
    if "fractional.memory_convolution" in registered:
        gb = work("fractional.memory_convolution") / 1e9
        put("fractional.memory_convolution.gbytes", gb, "GB")
        put("fractional.memory_convolution.gbytes_per_s",
            ratio(gb, span_s("fractional.memory_convolution")), "GB/s")
    # eigenvalue verdicts: eigenvalues handed to classify_spectrum plus
    # cells decided by a coupling region
    eig_verdicts = work("stability.classify_spectrum") + calls("stability.region.classify")
    put("stability.samples_per_verdict", ratio(work("stability.boundary"), eig_verdicts), "ratio")
    put("stability.marginal_frac", ratio(analytic["marginal"], sum(analytic.values())), "ratio")
    sims = ("dynamics.simulate_linear", "dynamics.simulate_nonlinear")
    for name in sims:
        if name in registered:
            put(f"{name}.steps", work(name, 0), "count")
    steps = sum(work(n, 0) for n in sims)
    sites = sum(s[6][0] * s[6][2] for n in sims for s in by_name[n]) / passes
    put("dynamics.step_overhead_us", 1e6 * ratio(sum(self_s(n) for n in sims), steps), "us")
    put("dynamics.steps_useful_frac", ratio(steps, sum(work(n, 1) for n in sims)), "ratio")
    # steps are fixed by the inputs, so the traced passes count them and the
    # untraced replay of the same passes times them (corrected times)
    k = min(len(untraced.pass_times), passes)
    put("dynamics.site_steps_per_s", ratio(sites, sum(untraced.pass_corrected[:k]) / k), "1/s")
    if "dynamics.sweep" in registered:
        sweep_ids = {s[0] for s in by_name["dynamics.sweep"]}
        inner = sum(s[4] - s[3] for n in sims for s in by_name[n] if s[1] in sweep_ids)
        put("dynamics.sweep.parallelism", ratio(inner, passes * span_s("dynamics.sweep")), "ratio")
    for v in ("decaying", "growing", "diverged", "inconclusive"):
        put(f"dynamics.verdict_frac.{v}", ratio(empirical[v], sum(empirical.values())), "ratio")
    if "cli.write_csv" in registered:
        mb = work("cli.write_csv") / 1e6
        put("cli.write_csv.mbytes", mb, "MB")
        put("cli.write_csv.mb_per_s", ratio(mb, span_s("cli.write_csv")), "MB/s")
    put("trace.overhead_frac",
        ratio(sum(traced.pass_corrected[:k]), sum(untraced.pass_corrected[:k])) - 1.0, "ratio")
    # busy time: every span's self time (threads of a sweep's pool add up)
    # plus job time that no top-level span covers
    outside = sum(traced.pass_times) / passes - sum(s[4] - s[3] for s in spans if s[1] < 0) / passes
    layer_self = defaultdict(float)
    for name in by_name:
        layer_self[name.split(".")[0]] += self_s(name)
    busy = sum(layer_self.values()) + outside
    for mod in LAYER_MODULES:
        put(f"{mod}.time_share", ratio(layer_self[mod], busy), "ratio")
    put("outside_spans.time_share", ratio(outside, busy), "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fracml = _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    env = environment(args)

    untraced = Tally()
    if args.trace == 0:
        setup_s = measure_setup()
        run_passes(args.workload, args.seed, args.seconds, untraced)
        metrics, notes = end_to_end(args.workload, untraced, setup_s)
        tallies = [untraced]
    else:
        from spans import Recorder, write_spans

        run_passes(args.workload, args.seed, args.seconds / 2.0, untraced)
        traced = Tally()
        recorder = Recorder()
        registered = recorder.install(fracml)
        try:
            run_passes(args.workload, args.seed, args.seconds / 2.0, traced, recorder,
                       itertools.count())
        finally:
            recorder.uninstall()
        spans = recorder.spans()
        metrics = per_layer(spans, set(registered), untraced, traced)
        tallies = [untraced, traced]
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        write_spans(span_file, spans)
        notes = {"spans": len(spans), "span_file": str(span_file.relative_to(ROOT)),
                 "traced_passes": len(traced.pass_times),
                 "untraced_passes": len(untraced.pass_times)}

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    notes.update(
        checked=sum(t.checked for t in tallies),
        unchecked=sum(t.unchecked for t in tallies),
        failed_frac=failed / attempted,
        analytic_verdicts=dict(sum((t.analytic for t in tallies), Counter())),
        empirical_verdicts=dict(sum((t.empirical for t in tallies), Counter())),
    )
    failures = [f for t in tallies for f in t.failures]
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key:44s} {value:.6g} {unit}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    print("# env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "result": result, "notes": notes, "failures": failures[:100]}
    out_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
