"""Tests for incremental RCJ maintenance (DynamicRCJ).

Every test compares against the from-scratch oracle
(:func:`brute_force_rcj`) on the current point population — the
strongest possible check of the update rules.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brute import brute_force_rcj
from repro.core.dynamic import DynamicRCJ, voronoi_neighbours
from repro.datasets.synthetic import uniform
from repro.geometry.point import Point

from tests.conftest import make_points


def _oracle_keys(ps, qs):
    return {r.key() for r in brute_force_rcj(ps, qs)}


class TestConstruction:
    def test_empty(self):
        dyn = DynamicRCJ()
        assert len(dyn) == 0
        assert dyn.pairs == []

    def test_initial_result_matches_oracle(self):
        ps = uniform(120, seed=100)
        qs = uniform(100, seed=101, start_oid=1000)
        dyn = DynamicRCJ(ps, qs)
        assert dyn.pair_keys() == _oracle_keys(ps, qs)

    def test_repr_mentions_sizes(self):
        dyn = DynamicRCJ(uniform(10, seed=0), uniform(5, seed=1, start_oid=100))
        assert "|P|=10" in repr(dyn)


class TestInsert:
    def test_insert_into_empty(self):
        dyn = DynamicRCJ()
        dyn.insert(Point(100, 100, 0), "P")
        assert len(dyn) == 0  # no Q yet
        dyn.insert(Point(200, 200, 0), "Q")
        assert dyn.pair_keys() == {(0, 0)}

    def test_insert_kills_blocked_pair(self):
        # P p0 and Q q0 join; a new P point in the middle of their ring
        # must kill the pair and form two smaller ones.
        dyn = DynamicRCJ([Point(0, 0, 0)], [Point(100, 0, 0)])
        assert dyn.pair_keys() == {(0, 0)}
        dyn.insert(Point(50, 0, 1), "P")
        assert dyn.pair_keys() == {(1, 0)}

    def test_insert_q_side(self):
        dyn = DynamicRCJ([Point(0, 0, 0)], [Point(100, 0, 0)])
        dyn.insert(Point(50, 0, 1), "Q")
        assert dyn.pair_keys() == {(0, 1)}

    def test_insert_far_point_adds_pair_keeps_rest(self):
        ps = uniform(80, seed=102)
        qs = uniform(80, seed=103, start_oid=1000)
        dyn = DynamicRCJ(ps, qs)
        z = Point(9999.5, 9999.5, 500)
        dyn.insert(z, "P")
        assert dyn.pair_keys() == _oracle_keys(ps + [z], qs)

    def test_insert_sequence_matches_oracle(self):
        rng = random.Random(5)
        ps = uniform(40, seed=104)
        qs = uniform(40, seed=105, start_oid=1000)
        dyn = DynamicRCJ(ps, qs)
        for i in range(30):
            pt = Point(rng.uniform(0, 10000), rng.uniform(0, 10000), 2000 + i)
            if rng.random() < 0.5:
                ps = ps + [pt]
                dyn.insert(pt, "P")
            else:
                qs = qs + [pt]
                dyn.insert(pt, "Q")
            assert dyn.pair_keys() == _oracle_keys(ps, qs)

    def test_insert_coincident_duplicate(self):
        ps = [Point(100, 100, 0)]
        qs = [Point(200, 200, 0)]
        dyn = DynamicRCJ(ps, qs)
        dup = Point(100, 100, 1)
        dyn.insert(dup, "P")
        assert dyn.pair_keys() == _oracle_keys(ps + [dup], qs)


class TestDelete:
    def test_delete_missing_point_raises(self):
        dyn = DynamicRCJ(uniform(10, seed=0), uniform(10, seed=1, start_oid=100))
        with pytest.raises(KeyError, match="999"):
            dyn.delete(Point(-5, -5, 999), "P")

    def test_delete_removes_pairs_of_point(self):
        dyn = DynamicRCJ([Point(0, 0, 0)], [Point(100, 0, 0)])
        assert dyn.delete(Point(0, 0, 0), "P") is True
        assert len(dyn) == 0

    def test_delete_frees_blocked_pair(self):
        # p0 --- p1 --- q0 on a line: <p0, q0> is blocked by p1; after
        # deleting p1 the long pair appears.
        dyn = DynamicRCJ(
            [Point(0, 0, 0), Point(50, 0, 1)], [Point(100, 0, 0)]
        )
        assert dyn.pair_keys() == {(1, 0)}
        dyn.delete(Point(50, 0, 1), "P")
        assert dyn.pair_keys() == {(0, 0)}

    def test_delete_with_coincident_twin_frees_nothing(self):
        dyn = DynamicRCJ(
            [Point(50, 0, 0), Point(50, 0, 1)],
            [Point(0, 0, 0), Point(100, 0, 1)],
        )
        before = _oracle_keys(
            [Point(50, 0, 0), Point(50, 0, 1)],
            [Point(0, 0, 0), Point(100, 0, 1)],
        )
        assert dyn.pair_keys() == before
        dyn.delete(Point(50, 0, 1), "P")
        assert dyn.pair_keys() == _oracle_keys(
            [Point(50, 0, 0)], [Point(0, 0, 0), Point(100, 0, 1)]
        )

    def test_delete_sequence_matches_oracle(self):
        rng = random.Random(7)
        ps = uniform(50, seed=106)
        qs = uniform(50, seed=107, start_oid=1000)
        dyn = DynamicRCJ(ps, qs)
        for _ in range(35):
            if rng.random() < 0.5 and len(ps) > 1:
                victim = rng.choice(ps)
                ps = [p for p in ps if p.oid != victim.oid]
                assert dyn.delete(victim, "P")
            elif len(qs) > 1:
                victim = rng.choice(qs)
                qs = [q for q in qs if q.oid != victim.oid]
                assert dyn.delete(victim, "Q")
            assert dyn.pair_keys() == _oracle_keys(ps, qs)

    def test_delete_everything(self):
        ps = uniform(15, seed=108)
        qs = uniform(15, seed=109, start_oid=100)
        dyn = DynamicRCJ(ps, qs)
        for p in ps:
            assert dyn.delete(p, "P")
        for q in qs:
            assert dyn.delete(q, "Q")
        assert len(dyn) == 0
        assert len(dyn.tree_p) == 0 and len(dyn.tree_q) == 0


class TestMixedWorkload:
    def test_interleaved_updates_match_oracle(self):
        rng = random.Random(11)
        ps = uniform(30, seed=110)
        qs = uniform(30, seed=111, start_oid=1000)
        dyn = DynamicRCJ(ps, qs)
        next_oid = 5000
        for step in range(60):
            op = rng.random()
            if op < 0.4 or (len(ps) < 2 or len(qs) < 2):
                pt = Point(
                    rng.uniform(0, 10000), rng.uniform(0, 10000), next_oid
                )
                next_oid += 1
                if rng.random() < 0.5:
                    ps = ps + [pt]
                    dyn.insert(pt, "P")
                else:
                    qs = qs + [pt]
                    dyn.insert(pt, "Q")
            elif op < 0.7:
                victim = rng.choice(ps)
                ps = [p for p in ps if p.oid != victim.oid]
                assert dyn.delete(victim, "P")
            else:
                victim = rng.choice(qs)
                qs = [q for q in qs if q.oid != victim.oid]
                assert dyn.delete(victim, "Q")
            if step % 10 == 9:
                assert dyn.pair_keys() == _oracle_keys(ps, qs)
        assert dyn.pair_keys() == _oracle_keys(ps, qs)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),  # 0 insert-P, 1 insert-Q, 2 delete
                st.integers(0, 16).map(float),
                st.integers(0, 16).map(float),
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_lattice_updates_match_oracle(self, ops):
        """Degenerate-coordinate updates (ties, duplicates) maintained
        exactly."""
        dyn = DynamicRCJ()
        ps: list[Point] = []
        qs: list[Point] = []
        next_oid = 0
        rng = random.Random(13)
        for kind, x, y in ops:
            if kind == 0:
                pt = Point(x, y, next_oid)
                next_oid += 1
                ps.append(pt)
                dyn.insert(pt, "P")
            elif kind == 1:
                pt = Point(x, y, next_oid)
                next_oid += 1
                qs.append(pt)
                dyn.insert(pt, "Q")
            else:
                pool = ps if (len(ps) > 0 and (len(qs) == 0 or rng.random() < 0.5)) else qs
                if not pool:
                    continue
                victim = rng.choice(pool)
                if pool is ps:
                    ps.remove(victim)
                    assert dyn.delete(victim, "P")
                else:
                    qs.remove(victim)
                    assert dyn.delete(victim, "Q")
        assert dyn.pair_keys() == _oracle_keys(ps, qs)

    def test_property_float_updates_match_oracle(self):
        rng = random.Random(17)
        for trial in range(8):
            ps = uniform(12, seed=300 + trial)
            qs = uniform(12, seed=400 + trial, start_oid=1000)
            dyn = DynamicRCJ(ps, qs)
            next_oid = 9000
            for _ in range(20):
                r = rng.random()
                if r < 0.45:
                    pt = Point(
                        rng.uniform(0, 10000), rng.uniform(0, 10000), next_oid
                    )
                    next_oid += 1
                    side = "P" if rng.random() < 0.5 else "Q"
                    if side == "P":
                        ps = ps + [pt]
                    else:
                        qs = qs + [pt]
                    dyn.insert(pt, side)
                elif r < 0.75 and len(ps) > 1:
                    victim = rng.choice(ps)
                    ps = [p for p in ps if p.oid != victim.oid]
                    assert dyn.delete(victim, "P")
                elif len(qs) > 1:
                    victim = rng.choice(qs)
                    qs = [q for q in qs if q.oid != victim.oid]
                    assert dyn.delete(victim, "Q")
                assert dyn.pair_keys() == _oracle_keys(ps, qs)


class TestProbeSpan:
    """A probe's Voronoi cell starts from the live span, so how much of
    the stream it pulls does not depend on where the probe sits."""

    @pytest.fixture(scope="class")
    def field(self):
        from scipy.spatial import cKDTree

        points = uniform(20000, seed=5)
        xy = np.array([(p.x, p.y) for p in points])
        span = [*xy.min(axis=0).tolist(), *xy.max(axis=0).tolist()]
        return points, xy, cKDTree(xy), span

    @staticmethod
    def _probe(field, x):
        """Insert-probe ``x`` over a KD-tree stream in ascending
        distance; returns the neighbourhood and the points pulled."""
        points, _xy, tree, span = field
        dist, idx = tree.query([x.x, x.y], k=len(points))
        stream = (
            (d, points[i], "P") for d, i in zip(dist.tolist(), idx.tolist())
        )
        span = [
            min(span[0], x.x), min(span[1], x.y),
            max(span[2], x.x), max(span[3], x.y),
        ]
        out, pulled = voronoi_neighbours(
            x, stream, span, stop_on_coincident=False
        )
        return {z.oid for z, _side in out}, pulled

    @staticmethod
    def _ring_partners(field, x):
        """Oids ``z`` whose ring ``D(x, z)`` holds no point strictly
        inside (the exact dot predicate over the midpoint's nearest
        points): every pair an insert of ``x`` could make."""
        points, xy, tree, _span = field
        mids = (xy + [x.x, x.y]) / 2.0
        _d, near = tree.query(mids, k=4)
        partners = set()
        for z, row in enumerate(near.tolist()):
            s = xy[[i for i in row if i != z]]
            inside = (s[:, 0] - x.x) * (s[:, 0] - xy[z, 0]) + (
                s[:, 1] - x.y
            ) * (s[:, 1] - xy[z, 1]) < 0.0
            if not inside.any():
                partners.add(points[z].oid)
        return partners

    @pytest.mark.parametrize(
        "x", [Point(3.0, 3.0, -1), Point(5000.0, 2.0, -1)], ids=["corner", "edge"]
    )
    def test_near_hull_probe_streams_few_points(self, field, x):
        # Under a span widened by a full extent, these probes streamed
        # all 20,000 points.
        near, pulled = self._probe(field, x)
        assert pulled <= 64
        assert self._ring_partners(field, x) <= near

    def test_interior_probe_streams_as_before(self, field):
        x = Point(5000.0, 5000.0, -1)
        near, pulled = self._probe(field, x)
        assert pulled == 13
        assert self._ring_partners(field, x) <= near
