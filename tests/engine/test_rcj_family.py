"""The ``rcj`` family: one declared pipeline per RCJ route.

The bulk join is ``delaunay -> verify -> collect``; with ``k`` the
family is the top-k pipeline ``band -> prune -> verify ->
take-smallest``.  Both run through ``Pipeline.run`` — the planner's
array engines and ``run_topk`` alike — so what
``describe_family_pipeline`` prints is what executes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import worstcase
from repro.datasets.fixtures import uniform_pair
from repro.engine import run_join, run_topk
from repro.engine.arrays import PointArray
from repro.engine.families import (
    build_family_pipeline,
    describe_family_pipeline,
    explain_family,
)
from repro.engine.kernels import rcj_pair_indices
from repro.engine.operators import CandidateBlock, CollectCanonical, JoinContext
from repro.engine.streaming import DynamicArrayRCJ


@pytest.fixture(scope="module")
def points():
    return uniform_pair(200, 220, seed=3)


def test_bulk_pipeline_is_rcj_pair_indices(points):
    parr = PointArray.from_points(points[0])
    qarr = PointArray.from_points(points[1])
    ctx = JoinContext(parr, qarr)
    block = build_family_pipeline("rcj").run(ctx)
    p_idx, q_idx, candidates = rcj_pair_indices(parr, qarr)
    assert np.array_equal(block.p_idx, p_idx)
    assert np.array_equal(block.q_idx, q_idx)
    assert ctx.counters["candidates"] == candidates


def _collect_canonical(points, blocks):
    sink = CollectCanonical()
    ctx = JoinContext(
        PointArray.from_points(points[0]), PointArray.from_points(points[1])
    )
    for p_idx, q_idx in blocks:
        sink.collect(ctx, CandidateBlock(np.array(p_idx), np.array(q_idx)))
    out = sink.finish(ctx)
    return list(zip(out.q_idx.tolist(), out.p_idx.tolist()))


@pytest.mark.parametrize(
    "blocks",
    [
        # Two blocks, each in order, the second sorting first.
        [([0, 2, 1], [5, 5, 6]), ([3, 0, 4], [1, 2, 2])],
        # One block out of order, with ties on the probe row.
        [([1, 3, 0, 2, 0], [2, 0, 2, 1, 1])],
        # One block in order: the order check lets it through as is.
        [([4, 1, 7, 0], [0, 3, 3, 9])],
    ],
)
def test_collect_canonical_sorts_whatever_arrives(points, blocks):
    want = sorted((q, p) for p_idx, q_idx in blocks for p, q in zip(p_idx, q_idx))
    assert _collect_canonical(points, blocks) == want


def test_dynamic_backend_starts_from_the_canonical_join():
    # The columnar dynamic backend seeds its pairs from the bulk join:
    # they arrive in canonical (q row, p row) order on degenerate input
    # too (cocircular lattice cells, a coincident pile).
    points_p, points_q = worstcase.split_alternating(
        worstcase.lattice(49) + worstcase.coincident(4)
    )
    parr = PointArray.from_points(points_p)
    qarr = PointArray.from_points(points_q)
    p_idx, q_idx, _ = rcj_pair_indices(parr, qarr)
    assert np.array_equal(np.lexsort((p_idx, q_idx)), np.arange(len(p_idx)))
    dyn = DynamicArrayRCJ(points_p, points_q)
    assert [pair.key() for pair in dyn.pairs] == [
        (int(parr.oid[p]), int(qarr.oid[q]))
        for p, q in zip(p_idx.tolist(), q_idx.tolist())
    ]


def test_describe_prints_the_pipelines_that_run():
    assert (
        describe_family_pipeline("rcj")
        == "delaunay -> verify -> collect"
    )
    assert describe_family_pipeline("rcj", k=7) == (
        "band(k_hint=7) -> prune -> verify -> take-smallest(k=7)"
    )


def test_explain_rcj_names_the_bulk_pipeline(points):
    text = explain_family(*points, "rcj")
    assert "pipeline: delaunay -> verify -> collect" in text


def test_traced_runs_carry_their_pipeline(points):
    bulk = run_join(*points, engine="array")
    assert bulk.trace.attrs["pipeline"] == describe_family_pipeline("rcj")
    topk = run_topk(*points, 9, engine="array")
    assert topk.trace.attrs["pipeline"] == describe_family_pipeline(
        "rcj", k=9
    )


def test_rcj_family_k_is_topk_and_eps_rejected(points):
    # ``k`` on the RCJ family is ordered browsing: the run_topk result.
    want = run_topk(*points, 5, engine="array").pair_keys()
    assert run_join(
        *points, family="rcj", k=5, engine="array"
    ).pair_keys() == want
    with pytest.raises(ValueError, match="eps"):
        run_join(*points, family="rcj", eps=10.0)


def test_rcj_family_runs_array_parallel_in_process(points):
    # The triangulation is global: the RCJ does not shard, so
    # array-parallel coerces to the serial pipeline and a pool hint is
    # dropped.
    serial = run_join(*points, family="rcj", engine="array")
    coerced = run_join(
        *points, family="rcj", engine="array-parallel", workers=2,
        min_shard=16,
    )
    assert coerced.workers_used == 1
    assert coerced.algorithm == "ARRAY"
    assert [p.key() for p in coerced.pairs] == [p.key() for p in serial.pairs]
    # A pool hint is dropped, not fatal, on engines without a pool.
    assert run_join(
        *points, family="rcj", engine="array", min_shard=16
    ).pair_keys() == serial.pair_keys()
    assert run_join(
        *points, engine="auto", workers=1, min_shard=16
    ).pair_keys() == serial.pair_keys()


@pytest.mark.parametrize(
    "family, params",
    [("kcp", {"k": 3}), ("cij", {}), ("rcj", {"k": 3}), ("rcj", {})],
)
def test_unshardable_sources_refuse_probes(family, params):
    with pytest.raises(ValueError, match="probe rows"):
        build_family_pipeline(family, probes=np.arange(4), **params)


@pytest.mark.parametrize(
    "family, params",
    [("epsilon", {"eps": 5.0}), ("knn", {"k": 2})],
)
def test_shardable_sources_take_probes(family, params):
    pipeline = build_family_pipeline(family, probes=np.arange(4), **params)
    assert pipeline.source.probe_side in ("p", "q")
