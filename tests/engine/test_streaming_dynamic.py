"""Equivalence suite for the columnar dynamic backend.

The contract: after *any* interleaved insert/delete sequence, both
dynamic backends — :class:`DynamicRCJ` (R*-trees) and
:class:`DynamicArrayRCJ` (columns + batch kernels) — hold exactly the
pair set a from-scratch :func:`run_join` of the current populations
produces, and therefore exactly each other's.  Sequences are driven
over float geometry, degenerate lattices (duplicates, collinearity,
boundary ties) and hypothesis-generated update scripts.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicBackend, DynamicRCJ
from repro.datasets.synthetic import uniform
from repro.engine import make_dynamic, run_join
from repro.engine.streaming import DynamicArrayRCJ
from repro.geometry.point import Point


def scratch_keys(ps, qs):
    """From-scratch planner join of the current populations."""
    if not ps or not qs:
        return set()
    return run_join(ps, qs, engine="array").pair_keys()


def both_backends(ps=(), qs=()):
    return DynamicArrayRCJ(list(ps), list(qs)), DynamicRCJ(list(ps), list(qs))


class TestConstruction:
    def test_empty(self):
        dyn = DynamicArrayRCJ()
        assert len(dyn) == 0
        assert dyn.pairs == []
        assert "|P|=0" in repr(dyn)

    def test_initial_result_matches_planner(self):
        ps = uniform(120, seed=500)
        qs = uniform(100, seed=501, start_oid=1000)
        arr, obj = both_backends(ps, qs)
        assert arr.pair_keys() == obj.pair_keys() == scratch_keys(ps, qs)

    def test_satisfies_protocol(self):
        arr, obj = both_backends()
        assert isinstance(arr, DynamicBackend)
        assert isinstance(obj, DynamicBackend)

    def test_duplicate_oid_on_side_rejected(self):
        with pytest.raises(ValueError, match="duplicate oid"):
            DynamicArrayRCJ([Point(1, 1, 0), Point(2, 2, 0)], [])

    def test_invalid_side_rejected(self):
        dyn = DynamicArrayRCJ()
        with pytest.raises(ValueError, match="side"):
            dyn.insert(Point(0, 0, 0), "R")


class TestSingleUpdates:
    def test_insert_kills_blocked_pair(self):
        dyn = DynamicArrayRCJ([Point(0, 0, 0)], [Point(100, 0, 0)])
        assert dyn.pair_keys() == {(0, 0)}
        dyn.insert(Point(50, 0, 1), "P")
        assert dyn.pair_keys() == {(1, 0)}

    def test_delete_frees_blocked_pair(self):
        dyn = DynamicArrayRCJ(
            [Point(0, 0, 0), Point(50, 0, 1)], [Point(100, 0, 0)]
        )
        assert dyn.pair_keys() == {(1, 0)}
        dyn.delete(Point(50, 0, 1), "P")
        assert dyn.pair_keys() == {(0, 0)}

    def test_delete_missing_point_raises(self):
        dyn = DynamicArrayRCJ(uniform(10, seed=0), uniform(10, seed=1, start_oid=100))
        before = dyn.pair_keys()
        with pytest.raises(KeyError, match="999"):
            dyn.delete(Point(-5, -5, 999), "P")
        assert dyn.pair_keys() == before

    def test_delete_with_coincident_twin_frees_nothing(self):
        ps = [Point(50, 0, 0), Point(50, 0, 1)]
        qs = [Point(0, 0, 0), Point(100, 0, 1)]
        dyn = DynamicArrayRCJ(ps, qs)
        dyn.delete(Point(50, 0, 1), "P")
        assert dyn.pair_keys() == scratch_keys([ps[0]], qs)

    def test_delete_everything(self):
        ps = uniform(12, seed=502)
        qs = uniform(12, seed=503, start_oid=100)
        dyn = DynamicArrayRCJ(ps, qs)
        for p in ps:
            assert dyn.delete(p, "P")
        for q in qs:
            assert dyn.delete(q, "Q")
        assert len(dyn) == 0


class TestInterleavedEquivalence:
    """The satellite property: random interleaved insert/delete
    sequences end in exactly the from-scratch pair set — for both
    backends, checked against each other at every step."""

    def _drive(self, seed: int, steps: int, ps: list, qs: list) -> None:
        arr, obj = both_backends(ps, qs)
        rng = random.Random(seed)
        next_oid = 50_000
        for step in range(steps):
            op = rng.random()
            if op < 0.45 or len(ps) < 2 or len(qs) < 2:
                pt = Point(
                    rng.uniform(0, 10000), rng.uniform(0, 10000), next_oid
                )
                next_oid += 1
                side = "P" if rng.random() < 0.5 else "Q"
                (ps if side == "P" else qs).append(pt)
                arr.insert(pt, side)
                obj.insert(pt, side)
            elif op < 0.72:
                victim = rng.choice(ps)
                ps.remove(victim)
                assert arr.delete(victim, "P") and obj.delete(victim, "P")
            else:
                victim = rng.choice(qs)
                qs.remove(victim)
                assert arr.delete(victim, "Q") and obj.delete(victim, "Q")
            assert arr.pair_keys() == obj.pair_keys(), step
        assert arr.pair_keys() == scratch_keys(ps, qs)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_float_geometry(self, seed):
        ps = uniform(35, seed=600 + seed)
        qs = uniform(35, seed=700 + seed, start_oid=1000)
        self._drive(seed, 50, ps, qs)

    def test_from_empty(self):
        self._drive(9, 60, [], [])

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
    @settings(max_examples=25, deadline=None)
    def test_property_lattice_updates_match_both_backends(self, ops):
        """Degenerate coordinates (ties, duplicates, collinear runs):
        the two backends stay identical and end at the oracle."""
        arr, obj = both_backends()
        ps: list[Point] = []
        qs: list[Point] = []
        next_oid = 0
        rng = random.Random(13)
        for kind, x, y in ops:
            if kind in (0, 1):
                pt = Point(x, y, next_oid)
                next_oid += 1
                side = "P" if kind == 0 else "Q"
                (ps if kind == 0 else qs).append(pt)
                arr.insert(pt, side)
                obj.insert(pt, side)
            else:
                pool = (
                    ps
                    if (ps and (not qs or rng.random() < 0.5))
                    else qs
                )
                if not pool:
                    continue
                victim = rng.choice(pool)
                side = "P" if pool is ps else "Q"
                pool.remove(victim)
                assert arr.delete(victim, side)
                assert obj.delete(victim, side)
            assert arr.pair_keys() == obj.pair_keys()
        assert arr.pair_keys() == scratch_keys(ps, qs)


class TestFactory:
    def test_explicit_backends(self):
        ps = uniform(20, seed=800)
        qs = uniform(20, seed=801, start_oid=100)
        arr = make_dynamic(ps, qs, backend="array")
        obj = make_dynamic(ps, qs, backend="obj")
        assert isinstance(arr, DynamicArrayRCJ)
        assert isinstance(obj, DynamicRCJ)
        assert arr.pair_keys() == obj.pair_keys()

    def test_auto_fits_budget_picks_array(self):
        dyn = make_dynamic(uniform(30, seed=802), uniform(30, seed=803, start_oid=50))
        assert isinstance(dyn, DynamicArrayRCJ)

    def test_auto_over_budget_picks_disk_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "0.001")
        dyn = make_dynamic(
            uniform(30, seed=804), uniform(30, seed=805, start_oid=50)
        )
        assert isinstance(dyn, DynamicRCJ)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="dynamic backend"):
            make_dynamic(backend="quantum")

    def test_factory_result_maintains_updates(self):
        dyn = make_dynamic(backend="auto")
        dyn.insert(Point(100, 100, 0), "P")
        dyn.insert(Point(200, 200, 0), "Q")
        assert dyn.pair_keys() == {(0, 0)}
        assert dyn.delete(Point(100, 100, 0), "P")
        assert len(dyn) == 0


class TestRingColumns:
    """The kill-scan columns grow by doubling and swap-remove in place;
    after a bulk load and any add/remove sequence both lookups equal a
    scan of the live rings (the containment one with the exact
    predicate)."""

    def test_lookups_match_a_scan_of_the_live_rings(self):
        import numpy as np

        from repro.core.pairs import RCJPair
        from repro.engine.streaming import _RingColumns

        rng = random.Random(5)
        rings = _RingColumns()
        live = {
            (i, i % 7): RCJPair(
                Point(rng.uniform(0, 100), rng.uniform(0, 100), i),
                Point(rng.uniform(0, 100), rng.uniform(0, 100), i % 7),
            )
            for i in range(70)
        }
        rings.extend(
            list(live),
            np.array([(r.p.x, r.p.y, r.q.x, r.q.y) for r in live.values()]).T,
            np.array(list(live)).T,
        )
        for step in range(600):
            if live and rng.random() < 0.4:
                key = rng.choice(sorted(live))
                rings.remove(key)
                del live[key]
            else:
                p = Point(rng.uniform(0, 100), rng.uniform(0, 100), rng.randrange(40))
                q = Point(rng.uniform(0, 100), rng.uniform(0, 100), rng.randrange(40))
                if (p.oid, q.oid) not in live:
                    live[(p.oid, q.oid)] = RCJPair(p, q)
                    rings.add((p.oid, q.oid), live[(p.oid, q.oid)])
            assert len(rings) == len(live)
            if step % 50:
                continue
            oids = [rng.randrange(40) for _ in range(3)]
            for side, slot in (("P", 0), ("Q", 1)):
                want = {key for key in live if key[slot] in oids}
                got = rings.keys_involving_any(oids, side)
                assert len(got) == len(want) and set(got) == want
            xs = np.array([rng.uniform(0, 100) for _ in range(5)])
            ys = np.array([rng.uniform(0, 100) for _ in range(5)])
            want = {
                key
                for key, pair in live.items()
                if any(
                    (x - pair.p.x) * (x - pair.q.x)
                    + (y - pair.p.y) * (y - pair.q.y) < 0.0
                    for x, y in zip(xs.tolist(), ys.tolist())
                )
            }
            assert set(rings.keys_containing_any(xs, ys)) == want
