"""Tests for the sharded thread-pool executor: correctness,
determinism, concurrency, shard errors.

Pool cases use small datasets with a lowered ``min_shard`` so real
multi-shard execution happens without benchmark-sized inputs.  They
run the pooled families (the kNN join, the ε-join); the RCJ's
candidates come from one global triangulation, so it never pools.
"""

from __future__ import annotations

import multiprocessing
import re
import sys
import threading
from concurrent.futures import Future
from functools import partial

import numpy as np
import pytest

import repro.engine.operators as operators_mod
import repro.parallel.pool as pool_mod
from repro.datasets.fixtures import clustered_pair, duplicate_pair, uniform_pair
from repro.engine.arrays import PointArray
from repro.engine.families import build_family_pipeline
from repro.engine.kernels import rcj_pair_indices
from repro.engine.operators import JoinContext
from repro.engine.planner import run_join
from repro.obs.trace import stage_totals, trace
from repro.parallel.pool import SHARDS_PER_WORKER, run_sharded
from repro.parallel.shards import plan_shards

MIN_SHARD = 64  # force multi-shard plans at test sizes

#: The kNN join's pipeline builder (it shards along P).
KNN = partial(build_family_pipeline, "knn", k=4)

#: The ε-join's pipeline builder (it shards along Q).
EPSILON = partial(build_family_pipeline, "epsilon", eps=300.0)


def _indices(build, parr, qarr, workers, **kwargs):
    """``(p_idx, q_idx, candidates, workers_used)`` of one join run
    through :func:`run_sharded`."""
    ctx = JoinContext(parr, qarr)
    block = run_sharded(build, ctx, workers=workers, **kwargs)
    candidates = ctx.counters.get("candidates", 0)
    return block.p_idx, block.q_idx, candidates, ctx.workers


_knn_indices = partial(_indices, KNN)


def _pooled_report(points_pair, workers):
    return run_join(
        *points_pair,
        family="knn",
        k=4,
        engine="array-parallel",
        workers=workers,
        min_shard=MIN_SHARD,
    )


def _arrays(points_pair):
    points_p, points_q = points_pair
    return PointArray.from_points(points_p), PointArray.from_points(points_q)


def _concurrently(calls: dict) -> dict:
    """Run every ``name -> callable`` on its own thread, released
    together; returns ``name -> result`` (re-raising the first error)."""
    results: dict = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(calls))

    def caller(name):
        try:
            barrier.wait(timeout=60)
            results[name] = calls[name]()
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(n,)) for n in calls]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "a caller did not finish"
    if errors:
        raise errors[0]
    return results


@pytest.fixture
def requested(monkeypatch) -> list[int]:
    """``max_workers`` of every executor the pool constructs, through a
    stand-in ``ThreadPoolExecutor`` that runs each task inline (it
    starts no thread)."""
    seen: list[int] = []

    class InlineExecutor:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(pool_mod, "ThreadPoolExecutor", InlineExecutor)
    return seen


BUILDS = pytest.mark.parametrize(
    "build", [KNN, EPSILON], ids=["knn", "epsilon"]
)


class TestPoolCorrectness:
    @BUILDS
    @pytest.mark.parametrize("workers", [2, 4])
    def test_byte_identical_to_serial(self, build, workers):
        parr, qarr = _arrays(uniform_pair(700, 800, seed=21))
        ref_p, ref_q, ref_cand, _w = _indices(build, parr, qarr, workers=1)
        p_idx, q_idx, ncand, used = _indices(
            build, parr, qarr, workers=workers, min_shard=MIN_SHARD
        )
        assert used > 1  # a real pool ran
        assert np.array_equal(ref_p, p_idx)
        assert np.array_equal(ref_q, q_idx)
        assert ncand == ref_cand >= len(p_idx)

    def test_identical_across_worker_counts(self):
        parr, qarr = _arrays(clustered_pair(600, 700, seed=22))
        results = [
            _knn_indices(parr, qarr, workers=w, min_shard=MIN_SHARD)
            for w in (1, 2, 4)
        ]
        for p_idx, q_idx, _c, _w in results[1:]:
            assert np.array_equal(results[0][0], p_idx)
            assert np.array_equal(results[0][1], q_idx)

    def test_rcj_never_pools(self, requested):
        # The bulk RCJ (self-join mode included) runs in-process under
        # array-parallel: no executor, one worker, serial pairs.
        points_p, _ = duplicate_pair(500, 500, seed=23)
        arr = PointArray.from_points(points_p)
        ref_p, ref_q, _c = rcj_pair_indices(arr, arr, exclude_same_oid=True)
        report = run_join(
            points_p, points_p, engine="array-parallel", workers=2,
            exclude_same_oid=True, min_shard=MIN_SHARD,
        )
        assert requested == []
        assert report.workers_used == 1
        assert [pair.key() for pair in report.pairs] == [
            (int(arr.oid[p]), int(arr.oid[q]))
            for p, q in zip(ref_p.tolist(), ref_q.tolist())
        ]

    def test_empty_inputs(self):
        empty = PointArray.empty()
        parr, _ = _arrays(uniform_pair(50, 50, seed=24))
        for a, b in ((empty, parr), (parr, empty), (empty, empty)):
            p_idx, q_idx, ncand, _w = _knn_indices(a, b, workers=2)
            assert len(p_idx) == len(q_idx) == ncand == 0

    def test_small_input_runs_in_process(self, requested):
        # Below the shard threshold no executor is ever constructed.
        parr, qarr = _arrays(uniform_pair(100, 100, seed=25))
        p_idx, _q, _c, used = _knn_indices(parr, qarr, workers=4)
        assert requested == []
        assert used == 1
        assert len(p_idx) > 0

    def test_invalid_workers_rejected(self):
        parr, qarr = _arrays(uniform_pair(30, 30, seed=26))
        with pytest.raises(ValueError, match="workers"):
            _knn_indices(parr, qarr, workers=0)

    def test_stage_seconds_aggregated_across_shards(self):
        report = _pooled_report(uniform_pair(700, 800, seed=27), workers=2)
        root = report.trace
        assert report.workers_used == 2
        assert report.stage_seconds == stage_totals(root)
        (pool,) = root.find("pool")
        shards = [c for c in pool.children if c.name == "shard"]
        assert len(shards) == pool.attrs["shards"]
        assert all(shard.find("knn") for shard in shards)
        # Shards root their own traces on pool threads.
        assert all(shard.tid != root.tid for shard in shards)
        knn = [node for node in root.walk() if node.name == "knn"]
        assert report.stage_seconds["knn"] == sum(node.seconds for node in knn)

    def test_stage_seconds_on_serial_fallback(self):
        # Below the shard threshold the pipeline runs in-process; its
        # stage spans still land in the report.
        report = run_join(
            *uniform_pair(100, 100, seed=29),
            family="knn",
            k=4,
            engine="array-parallel",
            workers=4,
        )
        assert report.workers_used == 1
        assert report.stage_seconds == stage_totals(report.trace)
        assert "knn" in report.stage_seconds


class TestThreadedExecutor:
    @BUILDS
    def test_shard_error_names_the_shard(self, build):
        def exploding(probes=None):
            pipeline = build(probes=probes)
            if probes is not None and probes.size and probes.min() == 0:
                def boom(ctx):
                    raise RuntimeError("simulated shard failure")

                pipeline.run = boom
            return pipeline

        parr, qarr = _arrays(uniform_pair(600, 700, seed=31))
        with pytest.raises(RuntimeError, match="simulated") as info:
            with trace("test") as root:
                run_sharded(
                    exploding, JoinContext(parr, qarr), workers=2,
                    min_shard=MIN_SHARD,
                )
        notes = getattr(info.value, "__notes__", [])
        shard_note = re.compile(r"pool shard \[\d+, \d+\) of \d+")
        assert any(shard_note.fullmatch(note) for note in notes)
        (pool_span,) = root.find("pool")
        assert pool_span.attrs["error"] == "RuntimeError"

    def test_concurrent_callers_match_serial(self):
        parr, qarr = _arrays(uniform_pair(700, 800, seed=32))
        builds = {"knn": KNN, "epsilon": EPSILON}
        serial = {
            name: _indices(build, parr, qarr, workers=1)
            for name, build in builds.items()
        }
        results = _concurrently(
            {
                name: partial(
                    _indices, build, parr, qarr, workers=2,
                    min_shard=MIN_SHARD,
                )
                for name, build in builds.items()
            }
        )
        for name in builds:
            p_idx, q_idx, ncand, used = results[name]
            assert used == 2
            assert np.array_equal(serial[name][0], p_idx)
            assert np.array_equal(serial[name][1], q_idx)
            assert ncand == serial[name][2]

    def test_worker_request_capped_by_the_plan(self, requested):
        parr, qarr = _arrays(uniform_pair(300, 300, seed=33))
        ref_p, ref_q, _c, _w = _knn_indices(parr, qarr, workers=1)
        p_idx, q_idx, _c, used = _knn_indices(
            parr, qarr, workers=10_000, min_shard=MIN_SHARD
        )
        plan = plan_shards(
            parr.x, parr.y, 10_000 * SHARDS_PER_WORKER, min_shard=MIN_SHARD
        )
        (max_workers,) = requested
        assert 1 < max_workers == used <= len(plan)
        assert np.array_equal(ref_p, p_idx)
        assert np.array_equal(ref_q, q_idx)

    @pytest.mark.parametrize(
        "build,side", [(KNN, "q"), (EPSILON, "p")], ids=["knn", "epsilon"]
    )
    def test_source_tree_built_once(self, monkeypatch, build, side):
        # The source queries the tree over the side it does not probe;
        # the coordinator builds it once for every shard.
        parr, qarr = _arrays(uniform_pair(700, 800, seed=34))
        target = qarr if side == "q" else parr
        sizes: list[int] = []
        real = operators_mod.cKDTree

        def counting(data, *args, **kwargs):
            sizes.append(len(data))
            return real(data, *args, **kwargs)

        monkeypatch.setattr(operators_mod, "cKDTree", counting)
        _p, _q, _c, used = _indices(
            build, parr, qarr, workers=2, min_shard=MIN_SHARD
        )
        assert used == 2
        assert sizes.count(len(target)) == 1

    def test_concurrent_traced_callers_keep_their_own_trees(self):
        points = uniform_pair(700, 800, seed=35)

        def traced_join():
            report = _pooled_report(points, workers=2)
            return report, threading.get_native_id()

        results = _concurrently({"a": traced_join, "b": traced_join})
        (report_a, tid_a), (report_b, tid_b) = results["a"], results["b"]
        assert report_a.pair_keys() == report_b.pair_keys()
        shard_ids = []
        for report, tid in ((report_a, tid_a), (report_b, tid_b)):
            assert report.trace.tid == tid
            (pool,) = report.trace.find("pool")
            shards = pool.find("shard")
            assert len(shards) == pool.attrs["shards"]
            assert all(shard.tid != tid for shard in shards)
            assert report.stage_seconds == stage_totals(report.trace)
            shard_ids.append({id(shard) for shard in shards})
        assert not shard_ids[0] & shard_ids[1]

    def test_no_thread_or_process_outlives_a_run(self):
        parr, qarr = _arrays(uniform_pair(700, 800, seed=36))
        before = threading.active_count()
        _p, _q, _c, used = _knn_indices(
            parr, qarr, workers=4, min_shard=MIN_SHARD
        )
        assert used == 4
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []

    def test_view_shares_structures_and_counts_alone(self):
        parr, qarr = _arrays(uniform_pair(50, 60, seed=37))
        ctx = JoinContext(parr, qarr)
        ctx.counters["candidates"] = 7
        tree = ctx.tree_q()
        view = ctx.view()
        assert view.parr is parr and view.qarr is qarr
        assert view.tree_q() is tree
        assert view.counters == {}
        view.counters["candidates"] = 1
        assert ctx.counters == {"candidates": 7}

    def test_stress_more_threads_than_cores(self):
        # Many small shards on more threads than cores, switching
        # threads as often as the interpreter allows: a lost counter
        # update or a shard merged twice would change the sums.
        parr, qarr = _arrays(clustered_pair(900, 1000, seed=38))
        ref = {
            name: _indices(build, parr, qarr, workers=1)
            for name, build in (("knn", KNN), ("epsilon", EPSILON))
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for name, build in (("knn", KNN), ("epsilon", EPSILON)):
                for _ in range(3):
                    p_idx, q_idx, ncand, used = _indices(
                        build, parr, qarr, workers=8, min_shard=16
                    )
                    assert used == 8
                    assert np.array_equal(ref[name][0], p_idx)
                    assert np.array_equal(ref[name][1], q_idx)
                    assert ncand == ref[name][2]
        finally:
            sys.setswitchinterval(interval)
