"""Pins what each columnar execution route measures.

The benchmark's per-layer breakdown and the calibration log read the
same figures off every run: ``report.candidate_count``, the trace's
``candidates`` / ``verified`` / ``pruned`` / ``bands`` counter totals
and the stage names.  Their meaning differs per route on purpose — the
RCJ routes count the pairs that reach exact ring verification, the
families count what their source emitted — so this suite fixes each
route's figures on small fixed inputs.  Any rewiring of the execution
path has to reproduce them exactly.
"""

from __future__ import annotations

import pytest

import repro.engine.kernels as kernels
from repro.datasets.fixtures import clustered_pair, uniform_pair
from repro.engine import run_join, run_topk
from repro.obs.trace import counter_totals, stage_totals

COUNTERS = ("candidates", "verified", "pruned", "bands")

#: Forces real two-worker pools on these input sizes.
MIN_SHARD = 32


@pytest.fixture(scope="module")
def uniform():
    return uniform_pair(300, 340, seed=5)


@pytest.fixture(scope="module")
def clustered():
    return clustered_pair(320, 300, seed=6)


def _totals(report) -> tuple[int, ...]:
    assert report.trace is not None, "the suite needs tracing enabled"
    totals = counter_totals(report.trace)
    return tuple(totals.get(c, 0) for c in COUNTERS)


def _stages(report) -> set[str]:
    return set(stage_totals(report.trace))


#: route -> trace totals of (candidates, verified, pruned, bands); the
#: report's ``candidate_count`` equals the ``candidates`` total.  The
#: RCJ routes count the pairs that reach ring verification (``pruned``
#: = the ones it rejects; top-k counts every pair of the ordered chunks
#: it consumed, not just the k it returns); the families count what
#: their source emitted (kcp: the chunks its sink consumed).
PINNED = {
    "bulk-array-uniform": (922, 572, 350, 0),
    "bulk-array-clustered": (436, 282, 154, 0),
    "bulk-parallel-uniform": (922, 572, 350, 0),
    "bulk-parallel-clustered": (436, 282, 154, 0),
    "bulk-array-refused": (1268, 282, 986, 0),
    "topk-array-uniform": (48, 46, 2, 2),
    "topk-array-clustered": (123, 101, 22, 2),
    "epsilon-array": (520, 520, 0, 0),
    "epsilon-parallel": (520, 520, 0, 0),
    "knn-array": (960, 960, 0, 0),
    "knn-parallel": (960, 960, 0, 0),
    "kcp-array": (40, 40, 0, 0),
    "cij-array": (1616, 1077, 539, 0),
}


def _bulk(engine, **kw):
    return lambda pts: run_join(*pts, engine=engine, **kw)


def _family(family, engine="array", **params):
    if engine == "array-parallel":
        params.update(workers=2, min_shard=MIN_SHARD)
    return lambda pts: run_join(*pts, family=family, engine=engine, **params)


#: route -> (dataset, report factory)
ROUTES = {
    "bulk-array-uniform": ("uniform", _bulk("array")),
    "bulk-array-clustered": ("clustered", _bulk("array")),
    "bulk-parallel-uniform": (
        "uniform", _bulk("array-parallel", workers=2, min_shard=MIN_SHARD)
    ),
    "bulk-parallel-clustered": (
        "clustered", _bulk("array-parallel", workers=2, min_shard=MIN_SHARD)
    ),
    # Every probe forced onto the exact scan (the triangulation
    # refused).
    "bulk-array-refused": ("clustered", _bulk("array")),
    "topk-array-uniform": (
        "uniform", lambda pts: run_topk(*pts, 25, engine="array")
    ),
    "topk-array-clustered": (
        "clustered", lambda pts: run_topk(*pts, 60, engine="array")
    ),
    "epsilon-array": ("uniform", _family("epsilon", eps=400.0)),
    "epsilon-parallel": (
        "uniform", _family("epsilon", "array-parallel", eps=400.0)
    ),
    "knn-array": ("clustered", _family("knn", k=3)),
    "knn-parallel": ("clustered", _family("knn", "array-parallel", k=3)),
    "kcp-array": ("uniform", _family("kcp", k=40)),
    "cij-array": ("clustered", _family("cij")),
}

#: Stage names the benchmark's per-layer breakdown and the calibration
#: refit read off each route.
STAGES = {
    "bulk": {"candidate", "verify"},
    "topk": {"candidate", "prune", "verify"},
    "epsilon": {"range", "collect"},
    "knn": {"knn", "collect"},
    "kcp": {"band"},
    "cij": {"cells", "verify", "collect"},
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_figures_and_stage_names(route, uniform, clustered, monkeypatch):
    if route.endswith("-refused"):
        monkeypatch.setattr(kernels, "checked_delaunay", lambda sites: None)
    dataset, make = ROUTES[route]
    report = make({"uniform": uniform, "clustered": clustered}[dataset])
    want = PINNED[route]
    got = _totals(report)
    assert report.candidate_count == got[0]
    if route.startswith("kcp"):
        # k-closest-pairs may count the bands of its band source.
        want, got = want[:3], got[:3]
    assert got == want
    assert STAGES[route.split("-")[0]] <= _stages(report)
    if "-parallel" in route:
        # A real pool ran; the bulk RCJ does not shard, so its
        # array-parallel runs in-process.
        assert report.workers_used == (1 if route.startswith("bulk") else 2)


@pytest.mark.parametrize("refused", [False, True])
def test_candidate_span_counts_sites_and_scanned_rows(refused, monkeypatch):
    # The clamped fixture: cluster tails clamped onto the box edges put
    # 251 of its 1,300 points on collinear runs along the sites' hull.
    points_p, points_q = clustered_pair(600, 700, seed=1, w=10)
    if refused:
        monkeypatch.setattr(kernels, "checked_delaunay", lambda sites: None)
    report = run_join(points_p, points_q, engine="array")
    (span,) = report.trace.find("candidate")
    if refused:
        # Nothing was triangulated; every probe takes the exact scan.
        assert "sites" not in span.counters
        assert span.counters["scanned_rows"] == len(points_q)
    else:
        assert span.counters["sites"] == 1286
        assert span.counters["scanned_rows"] == 0
