"""Span recorder for the traced benchmark run.

The recorder wraps fracml's public functions where the calling modules
look them up (for example ``fracml.dynamics.memory_convolution``, which
is what ``simulate_linear`` calls), so no source under ``src/`` changes.
Each call becomes one span: id, parent id, name, start, end, job id and
an optional work count taken from the call's arguments or result.

Spans are kept per thread in memory and only read after the traced
passes end.  ``sweep`` runs its cells on a thread pool; the pool class
``fracml.dynamics`` uses is replaced by one that carries the submitting
thread's open span and job id into the worker, so parent ids survive
the pool.

A function that a later version of fracml no longer has is skipped, so
its metrics are absent rather than zero.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import threading
import time
from collections import defaultdict

import numpy as np


class _ThreadState:
    __slots__ = ("stack", "root", "job", "spans")

    def __init__(self):
        self.stack: list[int] = []
        self.root = -1  # parent id for spans opened with an empty stack
        self.job = -1
        self.spans: list[tuple] = []


class Recorder:
    """Collects spans from every thread that calls a wrapped function."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def set_job(self, job: int) -> None:
        """Tag spans opened from now on in this thread with ``job``."""
        self._state().job = job

    def spans(self) -> list[tuple]:
        """All spans recorded so far: (id, parent, name, t0, t1, job, work)."""
        with self._lock:
            return [s for st in self._states for s in st.spans]

    def wrap(self, name, fn, work=None, before=None):
        """Return ``fn`` recording one span per call.

        ``work(args, kwargs, result, pre)`` returns the span's work count;
        ``before(args, kwargs)`` runs ahead of the call and its value is
        passed to ``work`` as ``pre``.
        """
        state = self._state
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st = state()
            sid = next(ids)
            parent = st.stack[-1] if st.stack else st.root
            pre = before(args, kwargs) if before is not None else None
            st.stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.stack.pop()
            w = work(args, kwargs, result, pre) if work is not None else None
            st.spans.append((sid, parent, name, t0, t1, st.job, w))
            return result

        traced.__wrapped__ = fn
        return traced

    def _pool_class(self, base):
        recorder = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                st = recorder._state()
                ctx = (st.stack[-1] if st.stack else st.root, st.job)

                def run():
                    ws = recorder._state()
                    saved = (ws.root, ws.job)
                    ws.root, ws.job = ctx
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        ws.root, ws.job = saved

                return super().submit(run)

        return TracedPool

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, fracml) -> list[str]:
        """Wrap every traced function of ``fracml``; return the span names."""
        names = []
        for name, sites, work, before in _targets(fracml):
            present = [(owner, attr) for owner, attr in sites if hasattr(owner, attr)]
            if not present:
                continue
            wrapped = {}
            for owner, attr in present:
                fn = getattr(owner, attr)
                if fn not in wrapped:
                    wrapped[fn] = self.wrap(name, fn, work, before)
                self.patch(owner, attr, wrapped[fn])
            names.append(name)
        pool = getattr(fracml.dynamics, "ThreadPoolExecutor", None)
        if isinstance(pool, type) and issubclass(pool, concurrent.futures.Executor):
            self.patch(fracml.dynamics, "ThreadPoolExecutor", self._pool_class(pool))
        return names

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _conv_bytes(args, kwargs, result, pre):
    # computed bytes, not measured: (t+1) history rows of N doubles plus
    # (t+1) weights
    t = int(_arg(args, kwargs, 2, "t"))
    n = np.shape(_arg(args, kwargs, 1, "history"))[1]
    return 8 * (t + 1) * (n + 1)


# simulators report (steps computed, steps requested, sites)
def _sim_lin_steps(args, kwargs, result, pre):
    return (len(result.states) - 1, int(_arg(args, kwargs, 3, "horizon")), result.sites)


def _sim_nl_steps(args, kwargs, result, pre):
    return (len(result.states) - 1, int(_arg(args, kwargs, 5, "horizon")), result.sites)


def _length(args, kwargs, result, pre):
    return len(result)


def _curve_samples(args, kwargs, result, pre):
    return len(result.t) - 1


def _n_cubed(args, kwargs, result, pre):
    return len(result) ** 3


def _spectrum_size(args, kwargs, result, pre):
    spec = _arg(args, kwargs, 0, "spectrum")
    return len(spec)


def _buffer_pos(args, kwargs):
    return _arg(args, kwargs, 0, "fh").tell()


def _buffer_written(args, kwargs, result, pre):
    return _arg(args, kwargs, 0, "fh").tell() - pre


def _targets(fracml):
    """(span name, call sites, work, before) for every traced function."""
    sp, eg, st, dy, cl = fracml.spectra, fracml.eig, fracml.stability, fracml.dynamics, fracml.cli
    quad = getattr(st, "Quadrilateral", None)
    asym = getattr(st, "AsymmetricRegion", None)
    return [
        ("fractional.memory_convolution", [(dy, "memory_convolution")], _conv_bytes, None),
        ("fractional.kernel_weights", [(dy, "kernel_weights")], None, None),
        ("spectra.closed_form",
         [(sp, "circulant_eigenvalues"), (dy, "circulant_eigenvalues"),
          (sp, "symmetric_eigenvalues"), (sp, "asymmetric_eigenvalues"),
          (sp, "block_circulant_eigenvalues")], _length, None),
        ("eig.eigvals", [(eg, "eigvals")], _n_cubed, None),
        ("stability.boundary",
         [(st, "boundary_beta"), (st, "boundary_gamma"), (st, "boundary_gamma_infinity")],
         _curve_samples, None),
        ("stability.eigenvalue_in_region", [(st, "eigenvalue_in_region")], None, None),
        ("stability.classify_spectrum", [(st, "classify_spectrum")], _spectrum_size, None),
        ("stability.region.build",
         [(st, "symmetric_region"), (st, "asymmetric_region"), (st, "thermodynamic_region")],
         None, None),
        ("stability.region.classify",
         [(c, "classify") for c in (quad, asym) if c is not None], None, None),
        ("dynamics.simulate_linear", [(dy, "simulate_linear")], _sim_lin_steps, None),
        ("dynamics.simulate_nonlinear", [(dy, "simulate_nonlinear")], _sim_nl_steps, None),
        ("dynamics.sweep", [(dy, "sweep")], _length, None),
        ("dynamics.classify_trajectory", [(dy, "classify_trajectory")], None, None),
        ("cli.write_csv",
         [(cl, "write_sweep_csv"), (cl, "write_trajectory_csv")],
         _buffer_written, _buffer_pos),
    ]


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a = max(a, end)
        b = min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, _job, _w in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1, _job, _w in spans:
        kids = children.get(sid)
        out[sid] = (t1 - t0) - (_union_length(kids, t0, t1) if kids else 0.0)
    return out


def write_spans(path, spans) -> None:
    """Write spans as columns of one ``.npz`` file."""
    names = sorted({s[2] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    cols = list(zip(*spans)) if spans else [()] * 7
    work = [(w + (-1,) * 3)[:3] if isinstance(w, tuple) else (-1 if w is None else w, -1, -1)
            for w in cols[6]]
    np.savez(
        path,
        names=np.array(names),
        id=np.asarray(cols[0], dtype=np.int64),
        parent=np.asarray(cols[1], dtype=np.int64),
        name=np.asarray([index[n] for n in cols[2]], dtype=np.int32),
        t0=np.asarray(cols[3], dtype=float),
        t1=np.asarray(cols[4], dtype=float),
        job=np.asarray(cols[5], dtype=np.int64),
        work=np.asarray(work, dtype=np.int64).reshape(-1, 3),
    )
