"""Cross-engine equivalence for the parallel engine and auto planning.

Extends the equivalence suite of :mod:`tests.engine.test_equivalence_engines`
to ``engine="auto"`` (cost-based planning) and ``engine="array-parallel"``
across worker counts.  The RCJ's candidates come from one global
triangulation, so its ``array-parallel`` runs in-process; the pooled
routes are the ε-join and the kNN join.  The property is the same one
the whole system hangs on — identical result sets — plus one the
parallel engine adds: *byte-identical output* for every worker count,
not just set equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from functools import partial

from repro.core.selfjoin import self_rcj
from repro.datasets.fixtures import equivalence_families, uniform_pair
from repro.engine import run_join
from repro.engine.arrays import PointArray
from repro.engine.families import build_family_pipeline
from repro.engine.kernels import canonical_pair_order, rcj_pair_indices
from repro.engine.operators import JoinContext
from repro.parallel.pool import run_sharded

#: Lowered shard floor so small suite datasets still exercise real
#: multi-shard pools.
MIN_SHARD = 64

FAMILIES = ("uniform", "clustered", "collinear", "duplicates", "single_point")


def _keys(points_p, points_q, **kwargs):
    return run_join(points_p, points_q, **kwargs).pair_keys()


class TestAutoEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_auto_matches_brute(self, family, seed):
        points_p, points_q = equivalence_families(seed=seed)[family]
        reference = _keys(points_p, points_q, algorithm="brute")
        assert (
            _keys(points_p, points_q, engine="auto", workers=4) == reference
        ), f"auto diverges from brute on {family!r} seed {seed}"

    def test_auto_attaches_plan(self):
        points_p, points_q = equivalence_families()["uniform"]
        report = run_join(points_p, points_q, engine="auto", workers=2)
        assert report.plan is not None
        assert report.plan.engine in ("array", "array-parallel", "obj")
        assert report.algorithm == report.plan.engine.upper()

    def test_auto_obj_fallback_matches_brute(self):
        # A one-byte budget forces the R-tree/buffer plan.
        points_p, points_q = equivalence_families()["uniform"]
        report = run_join(
            points_p, points_q, engine="auto", buffer_budget_bytes=1
        )
        assert report.algorithm == "OBJ"
        assert report.plan.engine == "obj"
        assert report.pair_keys() == _keys(
            points_p, points_q, algorithm="brute"
        )

    def test_explicit_engine_skips_planning(self):
        points_p, points_q = equivalence_families()["uniform"]
        report = run_join(points_p, points_q, engine="array")
        assert report.plan is None

    def test_unknown_engine_rejected(self):
        points_p, points_q = equivalence_families()["single_point"]
        with pytest.raises(ValueError, match="unknown engine"):
            run_join(points_p, points_q, engine="warp")

    def test_rcj_array_parallel_runs_in_process(self):
        # The triangulation is global: the bulk RCJ coerces
        # array-parallel to the serial pipeline, pool hints included.
        points_p, points_q = equivalence_families()["uniform"]
        report = run_join(
            points_p, points_q, engine="array-parallel", workers=4,
            min_shard=16,
        )
        assert report.algorithm == "ARRAY"
        assert report.workers_used == 1
        assert report.pair_keys() == _keys(
            points_p, points_q, algorithm="brute"
        )


    def test_auto_obj_fallback_drops_pool_hints(self):
        # min_shard is a pool hint; the RCJ never pools, so it must not
        # crash the planned R-tree path.
        points_p, points_q = equivalence_families()["uniform"]
        report = run_join(
            points_p, points_q, engine="auto", buffer_budget_bytes=1,
            min_shard=16,
        )
        assert report.algorithm == "OBJ"
        assert report.pair_keys() == _keys(
            points_p, points_q, algorithm="brute"
        )


#: Pooled families and their parameters.
POOLED = (("knn", {"k": 3}), ("epsilon", {"eps": 300.0}))


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("family", ("uniform", "clustered", "duplicates"))
    @pytest.mark.parametrize("join, params", POOLED, ids=[j for j, _ in POOLED])
    def test_parallel_matches_oracle(self, family, workers, join, params):
        points_p, points_q = equivalence_families(seed=0)[family]
        oracle = run_join(
            points_p, points_q, family=join, engine="pointwise", **params
        )
        # min_shard=16 pushes even these deliberately small degenerate
        # families through a real multi-shard pool.
        got = run_join(
            points_p, points_q, family=join, engine="array-parallel",
            workers=workers, min_shard=16, **params,
        )
        assert got.pair_keys() == oracle.pair_keys(), (
            f"{join} array-parallel(workers={workers}) diverges on {family!r}"
        )

    def test_selfjoin_parallel_and_auto_match_brute(self):
        points, _ = equivalence_families(seed=1)["clustered"]
        reference = {p.key() for p in self_rcj(points, algorithm="brute")}
        for algorithm in ("array-parallel", "auto"):
            got = {
                p.key()
                for p in self_rcj(points, algorithm=algorithm, workers=2)
            }
            assert got == reference, algorithm


class TestCanonicalOrder:
    """Satellite: merged shard output must be byte-identical across
    worker counts, which rests on the canonical pair order."""

    def test_serial_output_is_canonically_ordered(self):
        points_p, points_q = uniform_pair(400, 500, seed=31)
        parr = PointArray.from_points(points_p)
        qarr = PointArray.from_points(points_q)
        p_idx, q_idx, _ = rcj_pair_indices(parr, qarr)
        order = canonical_pair_order(p_idx, q_idx)
        assert np.array_equal(order, np.arange(len(order)))

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("join, params", POOLED, ids=[j for j, _ in POOLED])
    def test_parallel_output_byte_identical_across_workers(
        self, workers, join, params
    ):
        points_p, points_q = uniform_pair(600, 800, seed=32)
        parr = PointArray.from_points(points_p)
        qarr = PointArray.from_points(points_q)
        build = partial(build_family_pipeline, join, **params)
        ref = run_sharded(build, JoinContext(parr, qarr), workers=1)
        ctx = JoinContext(parr, qarr)
        got = run_sharded(build, ctx, workers=workers, min_shard=MIN_SHARD)
        assert ctx.workers > 1  # a real pool ran
        ref_p, ref_q, p_idx, q_idx = ref.p_idx, ref.q_idx, got.p_idx, got.q_idx
        assert p_idx.dtype == ref_p.dtype and q_idx.dtype == ref_q.dtype
        assert p_idx.tobytes() == ref_p.tobytes()
        assert q_idx.tobytes() == ref_q.tobytes()

    def test_canonical_order_contract(self):
        p = np.array([5, 1, 9, 1], dtype=np.int64)
        q = np.array([2, 2, 0, 1], dtype=np.int64)
        order = canonical_pair_order(p, q)
        pairs = list(zip(q[order].tolist(), p[order].tolist()))
        assert pairs == sorted(pairs)
