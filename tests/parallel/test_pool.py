"""Tests for the sharded worker pool: correctness, determinism,
exception-safe cleanup.

Pool cases use small datasets with a lowered ``min_shard`` so real
multi-process, multi-shard execution happens without benchmark-sized
inputs.
"""

from __future__ import annotations

import multiprocessing
import os
import re
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.parallel.pool as pool_mod
from repro.datasets.fixtures import clustered_pair, duplicate_pair, uniform_pair
from repro.engine.arrays import PointArray
from repro.engine.kernels import rcj_pair_indices
from repro.engine.families import run_family_join
from repro.parallel.pool import parallel_rcj_pair_indices
from repro.obs.trace import trace
from repro.parallel.sharedmem import SharedArrays

MIN_SHARD = 64  # force multi-shard plans at test sizes


def _rcj_join(points_pair):
    parr, qarr = _arrays(points_pair)
    parallel_rcj_pair_indices(parr, qarr, workers=2, min_shard=MIN_SHARD)


def _epsilon_join(points_pair):
    run_family_join(
        *points_pair,
        "epsilon",
        eps=300.0,
        engine="array-parallel",
        workers=2,
        min_shard=MIN_SHARD,
    )


#: Pooled joins of different families share one worker stack and one
#: driver; the crash-safety contract is checked on each.
POOLED_JOINS = {"rcj": _rcj_join, "epsilon": _epsilon_join}


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
        ref_p, ref_q, _ = rcj_pair_indices(parr, qarr)
        p_idx, q_idx, ncand = parallel_rcj_pair_indices(
            parr, qarr, workers=workers, min_shard=MIN_SHARD
        )
        assert np.array_equal(ref_p, p_idx)
        assert np.array_equal(ref_q, q_idx)
        assert ncand >= len(p_idx)

    def test_identical_across_worker_counts(self):
        parr, qarr = _arrays(clustered_pair(600, 700, seed=22))
        results = [
            parallel_rcj_pair_indices(
                parr, qarr, workers=w, min_shard=MIN_SHARD
            )
            for w in (1, 2, 4)
        ]
        for p_idx, q_idx, _ in results[1:]:
            assert np.array_equal(results[0][0], p_idx)
            assert np.array_equal(results[0][1], q_idx)

    def test_selfjoin_mode(self):
        points_p, _ = _arrays(duplicate_pair(500, 500, seed=23))
        arr = points_p
        ref = rcj_pair_indices(arr, arr, exclude_same_oid=True)
        got = parallel_rcj_pair_indices(
            arr, arr, workers=2, exclude_same_oid=True, min_shard=MIN_SHARD
        )
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])

    def test_empty_inputs(self):
        empty = PointArray.empty()
        parr, _ = _arrays(uniform_pair(50, 50, seed=24))
        for a, b in ((empty, parr), (parr, empty), (empty, empty)):
            p_idx, q_idx, ncand = parallel_rcj_pair_indices(a, b, workers=2)
            assert len(p_idx) == len(q_idx) == ncand == 0

    def test_small_input_runs_in_process(self, monkeypatch):
        # Below the shard threshold no pool (and no shared memory) is
        # ever constructed.
        names = _record_created_specs(monkeypatch)
        parr, qarr = _arrays(uniform_pair(100, 100, seed=25))
        p_idx, _q, _c = parallel_rcj_pair_indices(parr, qarr, workers=4)
        assert names == []
        assert len(p_idx) > 0

    def test_invalid_workers_rejected(self):
        parr, qarr = _arrays(uniform_pair(30, 30, seed=26))
        with pytest.raises(ValueError, match="workers"):
            parallel_rcj_pair_indices(parr, qarr, workers=0)

    def test_stage_seconds_aggregated_across_shards(self):
        parr, qarr = _arrays(uniform_pair(700, 800, seed=27))
        stages: dict[str, float] = {}
        parallel_rcj_pair_indices(
            parr, qarr, workers=2, min_shard=MIN_SHARD, stage_seconds=stages
        )
        assert set(stages) & {"candidate", "verify"}
        assert all(v >= 0.0 for v in stages.values())

    def test_stage_seconds_accumulate_onto_existing_totals(self):
        # The accumulator sums — it must add to, not replace, what a
        # caller already collected.
        parr, qarr = _arrays(uniform_pair(700, 800, seed=28))
        stages = {"verify": 100.0}
        parallel_rcj_pair_indices(
            parr, qarr, workers=2, min_shard=MIN_SHARD, stage_seconds=stages
        )
        assert stages["verify"] > 100.0

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
            parallel_rcj_pair_indices(
                parr, qarr, workers=2, min_shard=MIN_SHARD
            )
        assert alive_at_close == [before + 2]
        assert root.find("pool-startup")

    def test_stage_seconds_on_serial_fallback(self):
        # Below the shard threshold the serial kernel runs in-process;
        # the accumulator must still be fed.
        parr, qarr = _arrays(uniform_pair(100, 100, seed=29))
        stages: dict[str, float] = {}
        parallel_rcj_pair_indices(parr, qarr, workers=4, stage_seconds=stages)
        assert set(stages) & {"candidate", "verify"}


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
            _rcj_join(uniform_pair(600, 700, seed=31))
    notes = getattr(info.value, "__notes__", [])
    shard_note = re.compile(r"pool shard \[\d+, \d+\) of \d+")
    assert any(shard_note.fullmatch(note) for note in notes)
    (pool_span,) = root.find("pool")
    assert pool_span.attrs["error"] == "BrokenProcessPool"
    assert names, "expected a real pooled run"
    assert _all_unlinked(names)
