"""Cross-family equivalence suite for the operator-algebra pipelines.

Every join family declared in :mod:`repro.engine.families` must produce
a pair set identical to its pointwise reference oracle on every dataset
family — uniform, clustered, collinear, tie-riddled duplicates and the
single-point degenerate — and the shardable families must additionally
be byte-identical across worker counts.  The suite also pins the
tie-canonical ordering contract of the R-tree top-k routes (exact
squared distance, ties broken by ascending oid) on duplicate-riddled
data, and checks the streamed RCJ pipeline against the planner's top-k
route.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.fixtures import (
    duplicate_pair,
    equivalence_families,
    uniform_pair,
)
from repro.engine import run_join, run_topk
from repro.engine.arrays import PointArray
from repro.engine.families import (
    FAMILY_NAMES,
    SHARDABLE_FAMILIES,
    build_family_pipeline,
    describe_family_pipeline,
    explain_family,
)
from repro.engine.operators import JoinContext

FIXTURES = sorted(equivalence_families(seed=3).keys())

#: (family, parameter) grid covering a tight and a loose setting each.
CASES = [
    ("epsilon", {"eps": 20.0}),
    ("epsilon", {"eps": 60.0}),
    ("knn", {"k": 1}),
    ("knn", {"k": 4}),
    ("kcp", {"k": 1}),
    ("kcp", {"k": 12}),
    ("cij", {}),
]


def ordered_keys(report):
    return [pair.key() for pair in report.pairs]


@pytest.fixture(scope="module")
def families():
    return equivalence_families(seed=3)


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize(
    "family,params", CASES, ids=[f"{f}-{p}" for f, p in CASES]
)
def test_pipeline_matches_pointwise(families, fixture, family, params):
    """The vectorized pipeline of every family reproduces its pointwise
    oracle exactly — same pairs, same canonical order — on every
    dataset family, tie-riddled duplicates included."""
    points_p, points_q = families[fixture]
    oracle = run_join(
        points_p, points_q, family=family, engine="pointwise", **params
    )
    pipeline = run_join(
        points_p, points_q, family=family, engine="array", **params
    )
    assert ordered_keys(pipeline) == ordered_keys(oracle)
    assert pipeline.stage_seconds, "pipeline runs must record stage times"


@pytest.mark.parametrize("family", SHARDABLE_FAMILIES)
def test_parallel_matches_serial(family):
    """Hilbert-sharded parallel execution of the shardable families is
    identical to the serial pipeline for one and two workers."""
    points_p, points_q = uniform_pair(300, 340, seed=17)
    params = {"eps": 55.0} if family == "epsilon" else {"k": 3}
    serial = run_join(
        points_p, points_q, family=family, engine="array", **params
    )
    assert serial.pairs, "fixture must produce pairs for real coverage"
    for workers in (1, 2):
        parallel = run_join(
            points_p,
            points_q,
            family=family,
            engine="array-parallel",
            workers=workers,
            min_shard=8,
            **params,
        )
        assert ordered_keys(parallel) == ordered_keys(serial)
        assert parallel.stage_seconds


@pytest.mark.parametrize("family", ("kcp", "cij"))
def test_unshardable_families_coerce_parallel(family):
    """kcp/cij accept engine='array-parallel' but run the serial
    pipeline (no probe-disjoint decomposition exists for them)."""
    points_p, points_q = uniform_pair(80, 90, seed=5)
    params = {"k": 6} if family == "kcp" else {}
    report = run_join(
        points_p, points_q, family=family, engine="array-parallel", **params
    )
    assert report.algorithm == f"{family.upper()}-ARRAY"
    oracle = run_join(
        points_p, points_q, family=family, engine="pointwise", **params
    )
    assert ordered_keys(report) == ordered_keys(oracle)


def test_topk_rtree_route_tie_canonical():
    """Regression: the R-tree k-closest-pairs route emits ties in
    canonical (d, p.oid, q.oid) order on duplicate-riddled data, so its
    prefix for any k equals the brute-force canonical prefix."""
    points_p, points_q = duplicate_pair(60, 70, seed=9)
    parr = PointArray.from_points(points_p)
    qarr = PointArray.from_points(points_q)
    dx = parr.x[:, None] - qarr.x[None, :]
    dy = parr.y[:, None] - qarr.y[None, :]
    d_sq = dx * dx + dy * dy
    pi, qi = np.unravel_index(np.argsort(d_sq, axis=None), d_sq.shape)
    brute = sorted(
        zip(
            d_sq[pi, qi].tolist(),
            parr.oid[pi].tolist(),
            qarr.oid[qi].tolist(),
        )
    )
    for k in (1, 7, 40):
        expected = [(p_oid, q_oid) for _d, p_oid, q_oid in brute[:k]]
        oracle = run_join(
            points_p, points_q, family="kcp", engine="pointwise", k=k
        )
        assert ordered_keys(oracle) == expected
        pipe = run_join(
            points_p, points_q, family="kcp", engine="array", k=k
        )
        assert ordered_keys(pipe) == expected


def test_knn_tie_canonical_on_duplicates():
    """kNN ties (equidistant q, duplicate locations) resolve to the
    ascending-oid neighbours in both the oracle and the pipeline."""
    points_p, points_q = duplicate_pair(50, 60, seed=21)
    for k in (1, 3, 6):
        oracle = run_join(
            points_p, points_q, family="knn", engine="pointwise", k=k
        )
        pipe = run_join(
            points_p, points_q, family="knn", engine="array", k=k
        )
        assert ordered_keys(pipe) == ordered_keys(oracle)
        counts: dict[int, int] = {}
        for p_oid, _q_oid in ordered_keys(pipe):
            counts[p_oid] = counts.get(p_oid, 0) + 1
        assert set(counts.values()) == {min(k, len(points_q))}


def test_rcj_streamed_pipeline_matches_topk():
    """The RCJ composed from the generic stages (band -> prune ->
    verify -> take-smallest) equals the planner's streamed top-k."""
    points_p, points_q = uniform_pair(150, 160, seed=8)
    k = 12
    expected = run_topk(points_p, points_q, k=k, engine="array")
    pipeline = build_family_pipeline("rcj", k=k)
    ctx = JoinContext(
        PointArray.from_points(points_p),
        PointArray.from_points(points_q),
        points_p=list(points_p),
        points_q=list(points_q),
    )
    block = pipeline.run(ctx)
    got = [
        (points_p[pi].oid, points_q[qi].oid)
        for pi, qi in zip(block.p_idx.tolist(), block.q_idx.tolist())
    ]
    assert got == [pair.key() for pair in expected.pairs]


def test_take_smallest_early_stop():
    """The band source yields canonically ordered chunks, and the
    take-smallest sink stops it at the chunk that brings its k-th pair
    — far short of the cross product."""
    points_p, points_q = uniform_pair(400, 400, seed=2)
    report = run_join(points_p, points_q, family="kcp", engine="array", k=5)
    assert report.result_count == 5
    assert report.candidate_count < len(points_p) * len(points_q) // 10


def test_run_join_family_dispatch_and_plan():
    """run_join(family=...) is the single front door: auto dispatch
    records the family plan and the executed engine on the report."""
    points_p, points_q = uniform_pair(200, 220, seed=4)
    report = run_join(points_p, points_q, family="epsilon", eps=40.0)
    assert report.plan is not None
    assert report.plan.engine in ("array", "array-parallel", "pointwise")
    assert report.algorithm.startswith("EPSILON-")
    assert report.stage_seconds or report.plan.engine == "pointwise"

    knn = run_join(points_p, points_q, family="knn", k=3, engine="array")
    assert knn.algorithm == "KNN-ARRAY"
    assert set(knn.stage_seconds) >= {"knn", "collect"}

    oracle = run_join(
        points_p, points_q, family="epsilon", engine="pointwise", eps=40.0
    )
    assert ordered_keys(report) == ordered_keys(oracle)


def test_stage_seconds_names_per_family():
    """Each family's report carries the wall times of exactly its
    declared operator chain."""
    points_p, points_q = uniform_pair(120, 130, seed=6)
    expected = {
        "epsilon": {"range", "distance", "collect"},
        "knn": {"knn", "collect"},
        "kcp": {"band", "collect"},
        "cij": {"cells", "verify", "collect"},
    }
    params = {"epsilon": {"eps": 35.0}, "knn": {"k": 2}, "kcp": {"k": 9}}
    for family, names in expected.items():
        report = run_join(
            points_p,
            points_q,
            family=family,
            engine="array",
            **params.get(family, {}),
        )
        assert set(report.stage_seconds) >= names, family


def test_cells_span_counts_all_pairs_cell_fallback():
    """``cell_fallback`` counts the points whose cell took the
    quadratic all-pairs path: every point of a side with an exact
    duplicate (Qhull drops it), none of a side in general position."""
    from repro.geometry.point import Point
    from repro.obs.trace import trace

    points_p, points_q = uniform_pair(40, 50, seed=8)
    twin = Point(points_p[0].x, points_p[0].y, 10_000)
    for side_p, expected in ((points_p, 0), (points_p + [twin], 41)):
        with trace("cij") as root:
            run_join(side_p, points_q, family="cij", engine="array")
        assert root is not None, "the suite needs tracing enabled"
        counted = sum(
            span.counters.get("cell_fallback", 0) for span in root.find("cells")
        )
        assert counted == expected


def test_describe_and_explain():
    points_p, points_q = uniform_pair(50, 50, seed=1)
    assert "->" in describe_family_pipeline("epsilon", eps=10.0)
    for family in FAMILY_NAMES:
        params = {
            "epsilon": {"eps": 10.0},
            "knn": {"k": 2},
            "kcp": {"k": 2},
        }.get(family, {})
        text = explain_family(points_p, points_q, family, **params)
        assert "pipeline:" in text


def test_parameter_validation():
    points_p, points_q = uniform_pair(10, 10, seed=0)
    with pytest.raises(ValueError):
        run_join(points_p, points_q, family="epsilon")  # eps missing
    with pytest.raises(ValueError):
        run_join(points_p, points_q, family="knn")  # k missing
    with pytest.raises(ValueError):
        run_join(points_p, points_q, family="cij", k=3)
    with pytest.raises(ValueError):
        run_join(points_p, points_q, family="voronoi", k=3)
    with pytest.raises(ValueError):
        run_join(
            points_p, points_q, family="epsilon", eps=5.0, engine="gpu"
        )
    with pytest.raises(ValueError):
        run_join(points_p, points_q, eps=5.0)  # eps is family-only
    with pytest.raises(ValueError):
        run_join(points_p, points_q, family="epsilon", eps=5.0, k=3)


def test_empty_and_degenerate_inputs():
    points_p, points_q = uniform_pair(20, 20, seed=0)
    for family, params in CASES:
        empty = run_join([], points_q, family=family, engine="array", **params)
        assert empty.pairs == []
        empty = run_join(points_p, [], family=family, engine="array", **params)
        assert empty.pairs == []
    for family in ("knn", "kcp"):
        zero = run_join(
            points_p, points_q, family=family, engine="array", k=0
        )
        assert zero.pairs == []
