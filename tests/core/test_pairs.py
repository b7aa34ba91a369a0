"""Unit tests for RCJ result/accounting types."""

import gc
import math
import sys
import threading

import numpy as np
import pytest

import repro.core.pairs as pairs_module
from repro.core.pairs import Candidate, JoinReport, RCJPair, pairs_from_indices
from repro.geometry.point import Point


class TestRCJPair:
    def test_circle_derived_from_endpoints(self):
        pair = RCJPair(Point(0, 0, 1), Point(4, 0, 2))
        assert pair.center == (2.0, 0.0)
        assert pair.radius == 2.0
        assert pair.diameter == 4.0

    def test_key_is_oid_pair(self):
        assert RCJPair(Point(0, 0, 5), Point(1, 1, 9)).key() == (5, 9)

    def test_center_is_fair(self):
        # Equidistant from both endpoints (the fairness property).
        pair = RCJPair(Point(1, 7, 0), Point(-3, 2, 1))
        cx, cy = pair.center
        dp = math.hypot(pair.p.x - cx, pair.p.y - cy)
        dq = math.hypot(pair.q.x - cx, pair.q.y - cy)
        assert math.isclose(dp, dq)
        assert math.isclose(dp, pair.radius)

    def test_equality_by_identity(self):
        a = RCJPair(Point(0, 0, 1), Point(1, 1, 2))
        b = RCJPair(Point(0, 0, 1), Point(1, 1, 2))
        assert a == b
        assert len({a, b}) == 1


class TestCandidate:
    def test_starts_alive(self):
        c = Candidate(Point(0, 0, 1), Point(2, 2, 2))
        assert c.alive

    def test_promotion_preserves_circle(self):
        c = Candidate(Point(0, 0, 1), Point(2, 0, 2))
        pair = c.to_pair()
        assert pair.circle is c.circle
        assert pair.key() == (1, 2)


class TestJoinReport:
    def test_counts_and_totals(self):
        report = JoinReport("X")
        report.pairs = [RCJPair(Point(0, 0, 1), Point(1, 1, 2))]
        report.cpu_seconds = 1.5
        report.io_seconds = 0.5
        assert report.result_count == 1
        assert report.total_seconds == 2.0

    def test_pair_keys(self):
        report = JoinReport("X")
        report.pairs = [
            RCJPair(Point(0, 0, 1), Point(1, 1, 2)),
            RCJPair(Point(0, 0, 3), Point(1, 1, 4)),
        ]
        assert report.pair_keys() == {(1, 2), (3, 4)}


class TestPairsFromIndices:
    P = [Point(i, -i, 100 - i) for i in range(5)]
    Q = [Point(2 * i, i, 7 * i) for i in range(4)]

    @pytest.fixture(autouse=True)
    def _restore_gc(self):
        """A failing case must not leave the collector off for the
        rest of the session."""
        yield
        gc.enable()

    def _pairs(self, p_idx, q_idx):
        return pairs_from_indices(
            self.P, self.Q, np.asarray(p_idx, np.int64), np.asarray(q_idx, np.int64)
        )

    def test_pairs_hold_the_callers_points(self):
        p_idx, q_idx = [4, 0, 0, 2, 4], [1, 3, 0, 2, 1]
        pairs = self._pairs(p_idx, q_idx)
        assert len(pairs) == len(p_idx)
        for pair, pi, qi in zip(pairs, p_idx, q_idx):
            assert type(pair) is RCJPair
            assert pair.p is self.P[pi]
            assert pair.q is self.Q[qi]

    def test_empty(self):
        assert self._pairs([], []) == []

    def test_gc_enabled_after_success(self):
        assert gc.isenabled()
        self._pairs([1, 2], [3, 0])
        assert gc.isenabled()

    def test_gc_paused_during_the_loop_and_back_after_a_raise(
        self, monkeypatch
    ):
        seen = []

        def flaky(p, q):
            seen.append(gc.isenabled())
            if len(seen) == 3:
                raise RuntimeError("boom")
            return RCJPair(p, q)

        monkeypatch.setattr(pairs_module, "RCJPair", flaky)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="boom"):
            self._pairs([0, 1, 2, 3], [0, 1, 2, 3])
        assert seen == [False, False, False]
        assert gc.isenabled()

    def test_callers_disabled_gc_is_left_disabled(self):
        gc.disable()
        try:
            pairs = self._pairs([3], [2])
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert pairs[0].key() == (97, 14)

    def test_bad_index_raises_and_leaves_gc_alone(self):
        with pytest.raises(IndexError):
            self._pairs([5], [0])
        assert gc.isenabled()

    def test_concurrent_callers_leave_gc_enabled(self):
        """Threads pausing the collector at once: every result is right
        and the collector ends up on, whatever the interleaving."""
        p_idx = np.arange(2000, dtype=np.int64) % len(self.P)
        q_idx = np.arange(2000, dtype=np.int64) % len(self.Q)
        errors = []

        def work():
            try:
                for _ in range(40):
                    pairs = pairs_from_indices(self.P, self.Q, p_idx, q_idx)
                    assert pairs[7].p is self.P[2] and pairs[7].q is self.Q[3]
            except Exception as exc:  # reported to the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gc.isenabled()
