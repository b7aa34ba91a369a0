"""Accounting regression: cost counters pinned for a fixed workload.

The paper's figures are built from ``JoinReport`` counters, so silent
drift in node-access, page-fault or candidate accounting corrupts every
benchmark table without failing a single correctness test.  This module
pins the exact counter values of each algorithm on one fixed-seed
workload.  The numbers themselves are not meaningful — the *stability*
is.  If an intentional change to traversal order, buffer policy,
filtering or the array engine's candidate generation moves them,
re-derive the constants (run the algorithms and copy the new values)
and justify the change in the commit.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import build_workload, run_algorithm
from repro.datasets.fixtures import uniform_pair

#: algorithm -> (candidate_count, node_accesses, page_faults, result_count)
#: on uniform_pair(120, 150, seed=7) with the default 1% buffer.
EXPECTED = {
    "INJ": (594, 1384, 1384, 259),
    "BIJ": (1139, 56, 56, 259),
    "OBJ": (361, 56, 56, 259),
    "ARRAY": (400, 0, 0, 259),
}


@pytest.fixture(scope="module")
def workload():
    points_p, points_q = uniform_pair(120, 150, seed=7)
    return build_workload(points_q, points_p)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_counters_pinned(workload, name):
    report = run_algorithm(workload, name)
    got = (
        report.candidate_count,
        report.node_accesses,
        report.page_faults,
        report.result_count,
    )
    assert got == EXPECTED[name], (
        f"{name} cost counters drifted: "
        f"(candidates, node_accesses, page_faults, results) = {got}, "
        f"pinned {EXPECTED[name]}.  If the change is intentional, "
        f"re-derive the constants in {__file__}."
    )


def test_counters_are_reset_between_runs(workload):
    """A second run must reproduce the same counters bit-for-bit."""
    first = run_algorithm(workload, "OBJ")
    second = run_algorithm(workload, "OBJ")
    assert (
        first.candidate_count,
        first.node_accesses,
        first.page_faults,
    ) == (
        second.candidate_count,
        second.node_accesses,
        second.page_faults,
    )


def test_array_report_has_no_io_charge(workload):
    """The memory backend reports zero modelled I/O by construction."""
    report = run_algorithm(workload, "ARRAY")
    assert report.page_faults == 0
    assert report.io_seconds == 0.0
    assert report.buffer_hits == 0
