"""Shared test helpers and the acceptance-criteria summary."""

import numpy as np

from fracml.spectra import Spectrum


def multiset_distance(a, b) -> float:
    """Greedy nearest-pair matching distance between two eigenvalue multisets.

    Both sides are put in canonical (re, im) lexicographic order; each
    value of ``a`` in turn grabs the nearest unmatched value of ``b``
    (ties resolved toward the lexicographically smaller candidate).
    Returns the largest matched pair distance.  Reproducible, symmetric
    enough for test tolerances; not an optimal assignment.
    """
    va, vb = (x.eigenvalues if isinstance(x, Spectrum) else np.asarray(x, dtype=complex) for x in (a, b))
    if len(va) != len(vb):
        raise ValueError(f"multiset sizes differ: {len(va)} vs {len(vb)}")
    if len(va) == 0:
        return 0.0
    va = va[np.lexsort((va.imag, va.real))]
    vb = list(vb[np.lexsort((vb.imag, vb.real))])
    worst = 0.0
    for v in va:
        dists = [abs(v - u) for u in vb]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        vb.pop(i)
    return float(worst)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    reports = []
    for key in ("passed", "failed", "error"):
        reports.extend(terminalreporter.stats.get(key, []))
    acceptance = [
        r
        for r in reports
        if getattr(r, "when", "call") == "call" and "test_acceptance.py" in r.nodeid
    ]
    if not acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for r in sorted(acceptance, key=lambda r: r.nodeid):
        name = r.nodeid.split("::")[-1]
        status = "PASS" if r.passed else "FAIL"
        terminalreporter.write_line(f"{status}  {name}")
