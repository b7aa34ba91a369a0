"""``CollectAll``'s packed-key order and the pooled single sort.

The sink orders its rows by one stable sort of a packed int64 key of
the two sides' oid ranks.  That must be the very permutation of the
two-key reference ``np.lexsort((q_oid[q], p_oid[p]))`` — ties on
duplicate oids included, in arrival order — for any oid values.  Each
case tags its rows with ``d_sq = row number`` so the comparison sees
the full permutation, not only the oid columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.fixtures import uniform_pair
from repro.engine import run_join
from repro.engine.arrays import PointArray
from repro.engine.operators import (
    CandidateBlock,
    CollectAll,
    JoinContext,
    oid_ranks,
)

BIG = 2**62


def _ctx(p_oid, q_oid) -> JoinContext:
    def side(oid):
        oid = np.asarray(oid, dtype=np.int64)
        return PointArray(np.zeros(len(oid)), np.zeros(len(oid)), oid=oid)

    return JoinContext(side(p_oid), side(q_oid))


def _collect(ctx, p_idx, q_idx, cuts) -> CandidateBlock:
    """Feed the rows as blocks split at ``cuts``; finish the sink."""
    p_idx = np.asarray(p_idx, dtype=np.int64)
    q_idx = np.asarray(q_idx, dtype=np.int64)
    tag = np.arange(len(p_idx), dtype=np.float64)
    sink = CollectAll()
    bounds = [0, *cuts, len(p_idx)]
    for lo, hi in zip(bounds, bounds[1:]):
        sink.collect(ctx, CandidateBlock(p_idx[lo:hi], q_idx[lo:hi], tag[lo:hi]))
    return sink.finish(ctx)


def _assert_reference_order(p_oid, q_oid, p_idx, q_idx, cuts=()):
    ctx = _ctx(p_oid, q_oid)
    got = _collect(ctx, p_idx, q_idx, cuts)
    p_idx = np.asarray(p_idx, dtype=np.int64)
    q_idx = np.asarray(q_idx, dtype=np.int64)
    ref = np.lexsort((ctx.qarr.oid[q_idx], ctx.parr.oid[p_idx]))
    np.testing.assert_array_equal(got.p_idx, p_idx[ref])
    np.testing.assert_array_equal(got.q_idx, q_idx[ref])
    np.testing.assert_array_equal(got.d_sq, np.arange(len(p_idx))[ref])


def _all_pairs(n_p, n_q, seed):
    """Every (p, q) row pair, in a shuffled arrival order."""
    rng = np.random.default_rng(seed)
    p_idx, q_idx = np.divmod(np.arange(n_p * n_q), n_q)
    perm = rng.permutation(n_p * n_q)
    return p_idx[perm], q_idx[perm]


class TestPackedKeyOrder:
    def test_duplicate_oids_within_one_side(self):
        p_oid = [5, 5, 3, 3, 5, 9]
        q_oid = [1, 1, 2, 1]
        p_idx, q_idx = _all_pairs(len(p_oid), len(q_oid), seed=1)
        _assert_reference_order(p_oid, q_oid, p_idx, q_idx)

    def test_repeated_rows_keep_arrival_order(self):
        p_idx = [2, 0, 2, 1, 0, 2]
        q_idx = [1, 1, 1, 0, 1, 0]
        _assert_reference_order([7, 7, 4], [3, 3], p_idx, q_idx)

    def test_negative_oids(self):
        p_oid = [-1, -40, 3, 0, -7]
        q_oid = [-3, 12, -100]
        p_idx, q_idx = _all_pairs(len(p_oid), len(q_oid), seed=2)
        _assert_reference_order(p_oid, q_oid, p_idx, q_idx)

    def test_oids_near_the_int64_edge(self):
        p_oid = [BIG, -BIG, BIG - 1, -BIG + 1, 0, BIG]
        q_oid = [-BIG, BIG, 1 - BIG, BIG - 1]
        p_idx, q_idx = _all_pairs(len(p_oid), len(q_oid), seed=3)
        _assert_reference_order(p_oid, q_oid, p_idx, q_idx)

    def test_shuffled_non_monotone_oids(self):
        rng = np.random.default_rng(4)
        p_oid = rng.choice(10**9, size=40, replace=False) - 5 * 10**8
        q_oid = rng.choice(10**9, size=30, replace=False)
        p_idx, q_idx = _all_pairs(40, 30, seed=5)
        # A row-keyed order is not the oid order on these columns.
        assert not np.array_equal(np.argsort(p_oid), np.arange(40))
        _assert_reference_order(p_oid, q_oid, p_idx, q_idx, cuts=(100, 700))

    def test_empty_blocks(self):
        p_idx, q_idx = _all_pairs(4, 3, seed=6)
        _assert_reference_order(
            [9, 2, 2, -1], [4, 0, 4], p_idx, q_idx, cuts=(0, 0, 5, 5, 12)
        )

    def test_only_empty_blocks(self):
        got = _collect(_ctx([1, 2], [3]), [], [], cuts=(0, 0))
        assert len(got) == 0

    def test_no_blocks(self):
        assert len(CollectAll().finish(_ctx([1], [2]))) == 0

    def test_one_row_blocks(self):
        p_oid = [30, -2, 30, 8]
        q_oid = [6, -6, 6]
        p_idx, q_idx = _all_pairs(len(p_oid), len(q_oid), seed=7)
        _assert_reference_order(
            p_oid, q_oid, p_idx, q_idx, cuts=tuple(range(1, len(p_idx)))
        )

    def test_one_row(self):
        _assert_reference_order([BIG], [-BIG], [0], [0])


class TestOidRanks:
    def test_equal_oids_share_a_rank(self):
        ranks = oid_ranks(np.array([5, -1, 5, 3, -1], dtype=np.int64))
        np.testing.assert_array_equal(ranks, [3, 0, 3, 2, 0])
        assert ranks.dtype == np.int64

    def test_ranks_order_as_the_oids_do(self):
        oid = np.array([BIG, -BIG, 0, BIG - 1], dtype=np.int64)
        np.testing.assert_array_equal(
            np.argsort(oid_ranks(oid), kind="stable"),
            np.argsort(oid, kind="stable"),
        )


class TestPooledSortsOnce:
    @pytest.mark.parametrize(
        "family", [{"family": "knn", "k": 3}, {"family": "epsilon", "eps": 400.0}]
    )
    def test_only_the_coordinator_sorts(self, family, monkeypatch):
        calls = []
        order = CollectAll._order

        def counting(self, ctx, p_idx, q_idx):
            calls.append(len(p_idx))
            return order(self, ctx, p_idx, q_idx)

        monkeypatch.setattr(CollectAll, "_order", counting)
        P, Q = uniform_pair(300, 280, seed=9)
        pooled = run_join(
            P, Q, engine="array-parallel", workers=2, min_shard=16, **family
        )
        assert pooled.workers_used == 2
        assert calls == [len(pooled.pairs)]
