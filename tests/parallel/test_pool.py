"""Tests for the sharded worker pool: correctness, determinism,
exception-safe cleanup.

Pool cases use small datasets with a lowered ``min_shard`` so real
multi-process, multi-shard execution happens without benchmark-sized
inputs.  They run the pooled families (the kNN join, the ε-join); the
RCJ's candidates come from one global triangulation, so it never pools.
"""

from __future__ import annotations

import multiprocessing
import os
import re
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from functools import partial
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.parallel.pool as pool_mod
from repro.datasets.fixtures import clustered_pair, duplicate_pair, uniform_pair
from repro.engine.arrays import PointArray
from repro.engine.families import build_family_pipeline
from repro.engine.planner import run_join
from repro.engine.kernels import rcj_pair_indices
from repro.engine.operators import JoinContext
from repro.engine.planner import run_join
from repro.obs.trace import stage_totals, trace
from repro.parallel.pool import run_sharded
from repro.parallel.sharedmem import SharedArrays

MIN_SHARD = 64  # force multi-shard plans at test sizes

#: The kNN join's pipeline builder (it shards along P).
KNN = partial(build_family_pipeline, "knn", k=4)


def _knn_indices(parr, qarr, workers, **kwargs):
    """``(p_idx, q_idx, candidates, workers_used)`` of a kNN join run
    through :func:`run_sharded`."""
    ctx = JoinContext(parr, qarr)
    block = run_sharded(KNN, ctx, workers=workers, **kwargs)
    candidates = ctx.counters.get("candidates", 0)
    return block.p_idx, block.q_idx, candidates, ctx.workers


def _knn_join(points_pair):
    parr, qarr = _arrays(points_pair)
    _knn_indices(parr, qarr, workers=2, min_shard=MIN_SHARD)


def _epsilon_join(points_pair):
    run_join(
        *points_pair,
        family="epsilon",
        eps=300.0,
        engine="array-parallel",
        workers=2,
        min_shard=MIN_SHARD,
    )


#: Pooled joins of different families share one worker stack and one
#: driver; the crash-safety contract is checked on each.
POOLED_JOINS = {"knn": _knn_join, "epsilon": _epsilon_join}


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


def _record_created_specs(monkeypatch):
    """Spy on SharedArrays.create, collecting block names."""
    names: list[str] = []
    original = SharedArrays.create.__func__

    def recording(cls, arrays):
        shared = original(cls, arrays)
        names.append(shared.name)
        return shared

    monkeypatch.setattr(
        SharedArrays, "create", classmethod(recording)
    )
    return names


def _all_unlinked(names):
    for name in names:
        try:
            block = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        block.close()
        return False
    return True


class TestPoolCorrectness:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_byte_identical_to_serial(self, workers):
        parr, qarr = _arrays(uniform_pair(700, 800, seed=21))
        ref_p, ref_q, _c, _w = _knn_indices(parr, qarr, workers=1)
        p_idx, q_idx, ncand, used = _knn_indices(
            parr, qarr, workers=workers, min_shard=MIN_SHARD
        )
        assert used > 1  # a real pool ran
        assert np.array_equal(ref_p, p_idx)
        assert np.array_equal(ref_q, q_idx)
        assert ncand >= len(p_idx)

    def test_identical_across_worker_counts(self):
        parr, qarr = _arrays(clustered_pair(600, 700, seed=22))
        results = [
            _knn_indices(parr, qarr, workers=w, min_shard=MIN_SHARD)
            for w in (1, 2, 4)
        ]
        for p_idx, q_idx, _c, _w in results[1:]:
            assert np.array_equal(results[0][0], p_idx)
            assert np.array_equal(results[0][1], q_idx)

    def test_rcj_never_pools(self, monkeypatch):
        # The bulk RCJ (self-join mode included) runs in-process under
        # array-parallel: no shared memory, one worker, serial pairs.
        names = _record_created_specs(monkeypatch)
        points_p, _ = duplicate_pair(500, 500, seed=23)
        arr = PointArray.from_points(points_p)
        ref_p, ref_q, _c = rcj_pair_indices(arr, arr, exclude_same_oid=True)
        report = run_join(
            points_p, points_p, engine="array-parallel", workers=2,
            exclude_same_oid=True, min_shard=MIN_SHARD,
        )
        assert names == []
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

    def test_small_input_runs_in_process(self, monkeypatch):
        # Below the shard threshold no pool (and no shared memory) is
        # ever constructed.
        names = _record_created_specs(monkeypatch)
        parr, qarr = _arrays(uniform_pair(100, 100, seed=25))
        p_idx, _q, _c, used = _knn_indices(parr, qarr, workers=4)
        assert names == []
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
        shard_stages = [
            node
            for shard in root.find("shard")
            for node in shard.walk()
            if node.kind == "stage"
        ]
        assert "knn" in {node.name for node in shard_stages}
        # Every source span ran in a worker and was re-parented home.
        knn = [node for node in root.walk() if node.name == "knn"]
        assert all(node.proc != root.proc for node in knn)
        assert report.stage_seconds["knn"] == sum(node.seconds for node in knn)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only fork launches every worker at the first submit",
    )
    def test_workers_alive_when_startup_span_closes(self, monkeypatch):
        # The pool-startup span must time the worker launch, not just
        # the executor object's construction.
        alive_at_close: list[int] = []
        real_span = pool_mod.span

        @contextmanager
        def spying_span(name, **attrs):
            with real_span(name, **attrs) as node:
                yield node
            if name == "pool-startup":
                alive_at_close.append(len(multiprocessing.active_children()))

        monkeypatch.setattr(pool_mod, "span", spying_span)
        before = len(multiprocessing.active_children())
        parr, qarr = _arrays(uniform_pair(700, 800, seed=30))
        with trace("test") as root:
            _knn_indices(parr, qarr, workers=2, min_shard=MIN_SHARD)
        assert alive_at_close == [before + 2]
        assert root.find("pool-startup")

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


@pytest.mark.parametrize("join", sorted(POOLED_JOINS))
class TestPoolCleanup:
    def test_shared_memory_released_after_success(self, monkeypatch, join):
        names = _record_created_specs(monkeypatch)
        POOLED_JOINS[join](uniform_pair(600, 700, seed=27))
        assert names, "expected a real pooled run"
        assert _all_unlinked(names)

    def test_shared_memory_released_when_pool_creation_fails(
        self, monkeypatch, join
    ):
        names = _record_created_specs(monkeypatch)

        def exploding_executor(*args, **kwargs):
            raise RuntimeError("simulated pool crash")

        monkeypatch.setattr(pool_mod, "_make_executor", exploding_executor)
        with pytest.raises(RuntimeError, match="simulated pool crash"):
            POOLED_JOINS[join](uniform_pair(600, 700, seed=28))
        assert names, "expected shared memory to have been created"
        assert _all_unlinked(names)

    def test_shared_memory_released_when_a_task_fails(
        self, monkeypatch, join
    ):
        names = _record_created_specs(monkeypatch)

        class ExplodingFuture:
            def result(self):
                raise RuntimeError("simulated worker death")

        class ExplodingPool:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return ExplodingFuture()

        monkeypatch.setattr(
            pool_mod, "_make_executor", lambda *a, **k: ExplodingPool()
        )
        with pytest.raises(RuntimeError, match="simulated worker death"):
            POOLED_JOINS[join](uniform_pair(600, 700, seed=29))
        assert names, "expected shared memory to have been created"
        assert _all_unlinked(names)


def _die(lo, hi, traced=False):
    """Shard stand-in that kills its worker process outright."""
    os._exit(1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a forked worker resolves the test module's shard stand-in",
)
def test_worker_death_names_the_shard_and_releases_memory(monkeypatch):
    names = _record_created_specs(monkeypatch)
    monkeypatch.setattr(pool_mod, "_run_shard", _die)
    with pytest.raises(BrokenProcessPool) as info:
        with trace("test") as root:
            _knn_join(uniform_pair(600, 700, seed=31))
    notes = getattr(info.value, "__notes__", [])
    shard_note = re.compile(r"pool shard \[\d+, \d+\) of \d+")
    assert any(shard_note.fullmatch(note) for note in notes)
    (pool_span,) = root.find("pool")
    assert pool_span.attrs["error"] == "BrokenProcessPool"
    assert names, "expected a real pooled run"
    assert _all_unlinked(names)
