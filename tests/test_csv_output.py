"""Every CSV writer prints its floats so that they read back bit for bit.

The writers share one row writer with "%.17g", which is enough digits for
any binary64 value.  Hypothesis draws the values; the fixed example holds
the edge cases: signed zero, subnormals, huge and extreme magnitudes, and
the infinities and NaN, which every writer can receive.
"""

import io
import math
import struct
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fracml.cli import (  # noqa: E402
    write_asymmetric_region_csv,
    write_boundary_csv,
    write_sweep_csv,
    write_trajectory_csv,
    write_vertices_csv,
)
from fracml.dynamics import SweepCell, Trajectory  # noqa: E402
from fracml.stability import AsymmetricRegion, BoundaryCurve, Quadrilateral, RealInterval  # noqa: E402

# fixed examples, no example database: every run checks the same inputs
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

DBL_MAX = sys.float_info.max
EDGES = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1e-310, 1e300, -1e300,
         DBL_MAX, -DBL_MAX, math.inf, -math.inf, math.nan]
VALUES = st.lists(st.one_of(st.sampled_from(EDGES), st.floats()), min_size=1, max_size=40)


def _rows(write, *args):
    buf = io.StringIO()
    write(buf, *args)
    return [line.split(",") for line in buf.getvalue().splitlines()[1:]]


def _assert_reads_back(fields, values):
    assert len(fields) == len(values)
    for text, x in zip(fields, values):
        y = float(text)
        x = float(x)
        assert (math.isnan(x) and math.isnan(y)) or struct.pack("<d", x) == struct.pack("<d", y)


@PROPERTY
@example(EDGES)
@given(VALUES)
def test_csv_writers_round_trip_every_float(values):
    xs = np.array(values)

    # more rows than one write holds, two sites
    states = np.resize(xs, (300, 2))
    rows = _rows(write_trajectory_csv, Trajectory(states, 0.5))
    assert [int(r[0]) for r in rows] == list(range(300))
    for r, expected in zip(rows, states):
        _assert_reads_back(r[1:], expected)

    t, xy = xs, np.column_stack((xs[::-1], np.roll(xs, 1)))
    curve = BoundaryCurve(0.5, "beta", t, xy)
    for r, expected in zip(_rows(write_boundary_csv, curve), np.column_stack((t, xy))):
        _assert_reads_back(r, expected)

    vertices = tuple(map(tuple, np.resize(xs, (4, 2)).tolist()))
    rows = _rows(write_vertices_csv, Quadrilateral(0.5, "even", vertices))
    assert [r[0] for r in rows] == ["Q1", "Q2", "Q3", "Q4"]
    for r, expected in zip(rows, vertices):
        _assert_reads_back(r[1:], expected)

    region = AsymmetricRegion(0.5, RealInterval(xs[0], xs[-1]))
    rows = _rows(write_asymmetric_region_csv, region, None)
    expected = [(0, xs[0], -1.0), (1, xs[0], 1.0), (0, xs[-1], -1.0), (1, xs[-1], 1.0)]
    assert [r[0] for r in rows] == ["line"] * 4
    for r, e in zip(rows, expected):
        _assert_reads_back(r[1:], e)
    rows = _rows(write_asymmetric_region_csv, region, curve)
    ys = xy[:, 1]
    expected = [(0, 1.0, np.min(ys)), (1, 1.0, np.max(ys))] + np.column_stack((t, xy)).tolist()
    assert [r[0] for r in rows] == ["line"] * 2 + ["cardioid"] * len(xs)
    for r, e in zip(rows, expected):
        _assert_reads_back(r[1:], e)

    triples = np.resize(xs, (len(xs), 3)).tolist()
    cells = [SweepCell(p1, p2, "stable", None if k % 2 else "decaying", m)
             for k, (p1, p2, m) in enumerate(triples)]
    rows = _rows(write_sweep_csv, cells)
    for k, (r, (p1, p2, m)) in enumerate(zip(rows, triples)):
        assert r[2:4] == ["stable", "" if k % 2 else "decaying"]
        _assert_reads_back(r[:2] + r[4:], (p1, p2, m))
