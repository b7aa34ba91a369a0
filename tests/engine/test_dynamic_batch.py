"""Batched maintenance vs the per-event oracle.

``apply_batch`` must land on byte-identical pair sets to replaying the
same net events one at a time (deletes first, then inserts) — at
*every* batch boundary, for every backend, across batch sizes spanning
the lazy tiers' regimes (single-event through buffer-overflowing).
The per-event path is the oracle; a from-scratch ``run_join`` over the
final population pins both against the static engine.

Also pinned here: the batch validation contract (named ``KeyError`` /
``ValueError`` before *any* mutation), the strict tombstone- and
buffer-threshold boundaries, and trace-off equivalence.
"""

from __future__ import annotations

import random

import pytest

import repro.engine.streaming as streaming
from repro.core.dynamic import DynamicRCJ, validate_batch
from repro.engine.planner import run_join
from repro.engine.streaming import DynamicArrayRCJ
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs.trace import trace

BACKENDS = [DynamicArrayRCJ, DynamicRCJ]


def _uniform(rng: random.Random, n: int, start_oid: int) -> list[Point]:
    return [
        Point(rng.uniform(0, 1000), rng.uniform(0, 1000), start_oid + i)
        for i in range(n)
    ]


def _random_batch(rng, cur_p, cur_q, next_oid, size):
    """One net update batch against the current population: a mix of
    plain deletes, moves (delete + insert of the same oid) and fresh
    inserts totalling ``size`` net events."""
    inserts, deletes = [], []
    budget = size
    populations = {"P": cur_p, "Q": cur_q}
    while budget > 0:
        kind = rng.choice(("delete", "move", "insert"))
        side = rng.choice(("P", "Q"))
        cur = populations[side]
        deleted = {pt.oid for pt, s in deletes if s == side}
        if kind in ("delete", "move"):
            avail = [o for o in sorted(cur) if o not in deleted]
            if not avail:
                kind = "insert"
        if kind == "delete":
            oid = rng.choice(avail)
            deletes.append((cur[oid], side))
            budget -= 1
        elif kind == "move":
            if budget < 2:
                continue
            oid = rng.choice(avail)
            old = cur[oid]
            deletes.append((old, side))
            inserts.append(
                (
                    Point(
                        old.x + rng.uniform(-40, 40),
                        old.y + rng.uniform(-40, 40),
                        oid,
                    ),
                    side,
                )
            )
            budget -= 2
        else:
            inserts.append(
                (
                    Point(
                        rng.uniform(0, 1000), rng.uniform(0, 1000), next_oid
                    ),
                    side,
                )
            )
            next_oid += 1
            budget -= 1
    return inserts, deletes, next_oid


def _apply_to_population(cur_p, cur_q, inserts, deletes):
    for pt, side in deletes:
        (cur_p if side == "P" else cur_q).pop(pt.oid)
    for pt, side in inserts:
        (cur_p if side == "P" else cur_q)[pt.oid] = pt


@pytest.mark.parametrize("backend_cls", BACKENDS)
@pytest.mark.parametrize(
    "batch_size,windows,resident",
    [(1, 10, 25), (7, 6, 30), (64, 3, 60), (512, 1, 220)],
)
def test_batch_matches_sequential_at_every_boundary(
    backend_cls, batch_size, windows, resident
):
    rng = random.Random(97 * batch_size + windows)
    pts_p = _uniform(rng, resident, 0)
    pts_q = _uniform(rng, resident, 50_000)
    batched = backend_cls(pts_p, pts_q)
    sequential = backend_cls(pts_p, pts_q)
    cur_p = {p.oid: p for p in pts_p}
    cur_q = {q.oid: q for q in pts_q}
    next_oid = 100_000
    for _ in range(windows):
        inserts, deletes, next_oid = _random_batch(
            rng, cur_p, cur_q, next_oid, batch_size
        )
        batched.apply_batch(inserts, deletes)
        for pt, side in deletes:  # the oracle: deletes first, one event
            sequential.delete(pt, side)  # at a time, then inserts
        for pt, side in inserts:
            sequential.insert(pt, side)
        _apply_to_population(cur_p, cur_q, inserts, deletes)
        assert batched.pair_keys() == sequential.pair_keys()
    final = {
        p.key()
        for p in run_join(
            list(cur_p.values()), list(cur_q.values()), engine="array"
        ).pairs
    }
    assert batched.pair_keys() == final


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_batch_matches_across_backends(backend_cls):
    """Both backends replay the same windows onto identical pair sets."""
    rng = random.Random(5)
    pts_p = _uniform(rng, 40, 0)
    pts_q = _uniform(rng, 40, 50_000)
    dyn = backend_cls(pts_p, pts_q)
    other = (
        DynamicRCJ if backend_cls is DynamicArrayRCJ else DynamicArrayRCJ
    )(pts_p, pts_q)
    cur_p = {p.oid: p for p in pts_p}
    cur_q = {q.oid: q for q in pts_q}
    next_oid = 100_000
    for _ in range(5):
        inserts, deletes, next_oid = _random_batch(
            rng, cur_p, cur_q, next_oid, 16
        )
        dyn.apply_batch(inserts, deletes)
        other.apply_batch(inserts, deletes)
        _apply_to_population(cur_p, cur_q, inserts, deletes)
        assert dyn.pair_keys() == other.pair_keys()


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_move_in_one_batch(backend_cls):
    """delete + insert of the same oid in one batch is a legal move."""
    ps = [Point(0, 0, 0)]
    qs = [Point(100, 0, 0)]
    dyn = backend_cls(ps, qs)
    assert dyn.pair_keys() == {(0, 0)}
    dyn.apply_batch(
        inserts=[(Point(0, 50, 0), "P")], deletes=[(Point(0, 0, 0), "P")]
    )
    assert dyn.pair_keys() == {(0, 0)}


class TestValidation:
    """The shared ``validate_batch`` contract, through both backends."""

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_delete_absent_oid_raises_named_keyerror(self, backend_cls):
        dyn = backend_cls([Point(0, 0, 0)], [Point(100, 0, 0)])
        with pytest.raises(KeyError, match="999"):
            dyn.apply_batch(deletes=[(Point(5, 5, 999), "P")])

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_insert_present_oid_raises(self, backend_cls):
        dyn = backend_cls([Point(0, 0, 0)], [Point(100, 0, 0)])
        with pytest.raises(ValueError, match="already present"):
            dyn.apply_batch(inserts=[(Point(5, 5, 0), "P")])

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_duplicate_delete_raises(self, backend_cls):
        dyn = backend_cls([Point(0, 0, 0)], [Point(100, 0, 0)])
        with pytest.raises(ValueError):
            dyn.apply_batch(
                deletes=[(Point(0, 0, 0), "P"), (Point(0, 0, 0), "P")]
            )

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_duplicate_insert_raises(self, backend_cls):
        dyn = backend_cls([Point(0, 0, 0)], [Point(100, 0, 0)])
        with pytest.raises(ValueError):
            dyn.apply_batch(
                inserts=[(Point(5, 5, 7), "P"), (Point(6, 6, 7), "P")]
            )

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_invalid_side_raises(self, backend_cls):
        dyn = backend_cls([Point(0, 0, 0)], [Point(100, 0, 0)])
        with pytest.raises(ValueError):
            dyn.apply_batch(inserts=[(Point(5, 5, 7), "R")])

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_validation_failure_mutates_nothing(self, backend_cls):
        """A rejected batch is atomic: good events before the bad one
        must not have been applied."""
        ps = [Point(0, 0, 0), Point(50, 0, 1)]
        qs = [Point(100, 0, 0)]
        dyn = backend_cls(ps, qs)
        before = dyn.pair_keys()
        with pytest.raises(KeyError):
            dyn.apply_batch(
                inserts=[(Point(10, 10, 7), "P")],
                deletes=[(ps[1], "P"), (Point(1, 1, 999), "Q")],
            )
        assert dyn.pair_keys() == before
        # the in-batch delete of ps[1] must not have been applied:
        # deleting it now must still succeed.
        dyn.apply_batch(deletes=[(ps[1], "P")])
        assert dyn.pair_keys() == {(0, 0)}

    def test_validate_batch_function(self):
        has = lambda side, oid: oid == 1  # noqa: E731
        validate_batch(
            [(Point(0, 0, 2), "P")], [(Point(0, 0, 1), "Q")], has
        )
        with pytest.raises(KeyError):
            validate_batch([], [(Point(0, 0, 5), "P")], has)
        with pytest.raises(ValueError):
            validate_batch([(Point(0, 0, 1), "P")], [], has)


class TestCompactionThresholds:
    """The lazy tiers' strict (``>``) compaction triggers."""

    def _grid_backend(self, n=20):
        ps = [Point(10.0 * i, 0.0, i) for i in range(n)]
        qs = [Point(10.0 * i, 500.0, 1000 + i) for i in range(n)]
        return DynamicArrayRCJ(ps, qs), ps, qs

    def test_tombstones_at_fraction_do_not_compact(self, monkeypatch):
        monkeypatch.setattr(streaming, "TOMBSTONE_FRAC", 0.25)
        monkeypatch.setattr(streaming, "BUFFER_CAP", 100000)
        dyn, ps, _qs = self._grid_backend(20)
        # 5 of 20 dead == exactly frac * main_n: strictly-greater test
        # must NOT trigger a rebuild.
        dyn.apply_batch(deletes=[(p, "P") for p in ps[:5]])
        assert dyn.stats["rebuilds"] == 0
        assert dyn._p.tombstones == 5

    def test_one_more_tombstone_compacts(self, monkeypatch):
        monkeypatch.setattr(streaming, "TOMBSTONE_FRAC", 0.25)
        monkeypatch.setattr(streaming, "BUFFER_CAP", 100000)
        dyn, ps, _qs = self._grid_backend(20)
        dyn.apply_batch(deletes=[(p, "P") for p in ps[:6]])
        assert dyn.stats["rebuilds"] == 1
        assert dyn._p.tombstones == 0
        assert dyn.maintenance_stats()["tombstones"] == 0

    def test_buffer_at_cap_does_not_flush(self, monkeypatch):
        monkeypatch.setattr(streaming, "TOMBSTONE_FRAC", 100.0)
        monkeypatch.setattr(streaming, "BUFFER_CAP", 4)
        dyn, _ps, _qs = self._grid_backend(20)
        dyn.apply_batch(
            inserts=[(Point(3.0 * i, 100.0, 5000 + i), "P") for i in range(4)]
        )
        assert dyn.stats["rebuilds"] == 0
        assert dyn._p.buffered == 4

    def test_buffer_past_cap_flushes(self, monkeypatch):
        monkeypatch.setattr(streaming, "TOMBSTONE_FRAC", 100.0)
        monkeypatch.setattr(streaming, "BUFFER_CAP", 4)
        dyn, _ps, _qs = self._grid_backend(20)
        dyn.apply_batch(
            inserts=[(Point(3.0 * i, 100.0, 5000 + i), "P") for i in range(5)]
        )
        assert dyn.stats["rebuilds"] == 1
        assert dyn._p.buffered == 0
        assert dyn._p.main_count == 25

    def test_deleted_buffer_rows_leave_the_buffer_source(self, monkeypatch):
        # Lazy tiers only: a buffered insert deleted by a later batch is
        # tombstoned inside the buffer, and the repair's buffer source
        # must skip its row.
        monkeypatch.setattr(streaming, "TOMBSTONE_FRAC", 100.0)
        monkeypatch.setattr(streaming, "BUFFER_CAP", 100000)
        dyn, ps, qs = self._grid_backend(20)
        extra = [Point(7.0 * i + 1.5, 250.0, 5000 + i) for i in range(6)]
        dyn.apply_batch(inserts=[(p, "P") for p in extra])
        dyn.apply_batch(
            inserts=[(Point(33.0, 240.0, 6000), "P")],
            deletes=[(extra[1], "P"), (extra[4], "P")],
        )
        assert dyn.stats["rebuilds"] == 0
        rows, x, y, oid = dyn._p.buffer_columns()
        live = [p for i, p in enumerate(extra) if i not in (1, 4)]
        live.append(Point(33.0, 240.0, 6000))
        assert oid.tolist() == [p.oid for p in live]
        assert x.tolist() == [p.x for p in live]
        assert y.tolist() == [p.y for p in live]
        assert [dyn._p.point(row) for row in rows] == live
        scratch = run_join(ps + live, qs, engine="array").pair_keys()
        assert dyn.pair_keys() == scratch

    def test_tiny_thresholds_preserve_equivalence(self, monkeypatch):
        """Compacting nearly every batch lands on the same pair sets."""
        monkeypatch.setattr(streaming, "TOMBSTONE_FRAC", 0.05)
        monkeypatch.setattr(streaming, "BUFFER_CAP", 2)
        rng = random.Random(11)
        pts_p = _uniform(rng, 30, 0)
        pts_q = _uniform(rng, 30, 50_000)
        eager = DynamicArrayRCJ(pts_p, pts_q)
        lazy = DynamicArrayRCJ(pts_p, pts_q)
        cur_p = {p.oid: p for p in pts_p}
        cur_q = {q.oid: q for q in pts_q}
        next_oid = 100_000
        for _ in range(6):
            inserts, deletes, next_oid = _random_batch(
                rng, cur_p, cur_q, next_oid, 12
            )
            lazy.apply_batch(inserts, deletes)
            for pt, side in deletes:
                eager.delete(pt, side)
            for pt, side in inserts:
                eager.insert(pt, side)
            _apply_to_population(cur_p, cur_q, inserts, deletes)
            assert lazy.pair_keys() == eager.pair_keys()
        assert lazy.stats["rebuilds"] > 0


class TestBatchTracing:
    def test_trace_off_is_equivalent(self, monkeypatch):
        rng = random.Random(23)
        pts_p = _uniform(rng, 30, 0)
        pts_q = _uniform(rng, 30, 50_000)
        inserts = [(Point(rng.uniform(0, 1000), rng.uniform(0, 1000), 99_000 + i), "P") for i in range(4)]
        deletes = [(pts_q[i], "Q") for i in range(4)]

        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = DynamicArrayRCJ(pts_p, pts_q)
        traced.apply_batch(inserts, deletes)
        assert traced.last_batch_trace is not None
        names = {sp.name for sp in traced.last_batch_trace.walk()}
        assert "dynamic-batch" in names

        monkeypatch.setenv("REPRO_TRACE", "0")
        silent = DynamicArrayRCJ(pts_p, pts_q)
        silent.apply_batch(inserts, deletes)
        assert silent.last_batch_trace is None
        assert silent.pair_keys() == traced.pair_keys()

    def test_batch_stats_accumulate(self):
        dyn = DynamicArrayRCJ([Point(0, 0, 0)], [Point(100, 0, 0)])
        dyn.apply_batch(inserts=[(Point(50, 50, 1), "P")])
        dyn.apply_batch(deletes=[(Point(50, 50, 1), "P")])
        assert dyn.stats["batches"] == 2
        assert dyn.stats["events"] == 2
        stats = dyn.maintenance_stats()
        assert set(stats) >= {"batches", "events", "rebuilds", "tombstones", "buffered"}


class TestPerEventRepair:
    """Per-event ``insert``/``delete`` run the batch path's repair but
    stay eager: dense columns after every call, no batch accounting."""

    def _with_lazy_state(self):
        rng = random.Random(31)
        pts_p = _uniform(rng, 20, 0)
        pts_q = _uniform(rng, 20, 50_000)
        dyn = DynamicArrayRCJ(pts_p, pts_q)
        dyn.apply_batch(
            inserts=[(Point(500.0, 500.0, 90_000), "Q")],
            deletes=[(pts_p[0], "P")],
        )
        stats = dyn.maintenance_stats()
        assert stats["tombstones"] == 1 and stats["buffered"] == 1
        return dyn, pts_p

    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_per_event_leaves_no_lazy_state(self, op):
        dyn, pts_p = self._with_lazy_state()
        batches = dyn.stats["batches"]
        if op == "insert":
            dyn.insert(Point(250.0, 750.0, 91_000), "P")
        else:
            dyn.delete(pts_p[1], "P")
        stats = dyn.maintenance_stats()
        assert stats["tombstones"] == stats["buffered"] == 0
        assert dyn.stats["batches"] == batches

    def test_per_event_spans_carry_repair_counters(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        dyn, _pts_p = self._with_lazy_state()
        probe = Point(400.0, 600.0, 92_000)
        with trace("updates") as root:
            dyn.insert(probe, "P")
            dyn.delete(probe, "P")
        for name in ("dynamic-insert", "dynamic-delete"):
            (node,) = root.find(name)
            assert {"killed", "streamed", "candidates", "added"} <= set(
                node.counters
            )

    def test_batch_span_counts_streamed_points(self, monkeypatch):
        # Moving hull points probes near the domain's corners; each
        # probe pulls a handful of points, not the whole union.
        monkeypatch.setenv("REPRO_TRACE", "1")
        rng = random.Random(41)
        pts_p = _uniform(rng, 1500, 0)
        pts_q = _uniform(rng, 1500, 50_000)
        dyn = DynamicArrayRCJ(pts_p, pts_q, bounds=Rect(0, 0, 1000, 1000))
        corners = [(0.0, 0.0), (0.0, 1000.0), (1000.0, 0.0), (1000.0, 1000.0)]
        movers = [
            min(pts_p, key=lambda p: (p.x - cx) ** 2 + (p.y - cy) ** 2)
            for cx, cy in corners
        ]
        dyn.apply_batch(
            inserts=[
                (Point(p.x + 0.5, p.y + 0.5, p.oid), "P") for p in movers
            ],
            deletes=[(p, "P") for p in movers],
        )
        root = dyn.last_batch_trace
        assert root.name == "dynamic-batch"
        assert 0 < root.counters["streamed"] <= 16 * 2 * len(movers)

    def test_object_backend_delete_spans_count_streamed_points(
        self, monkeypatch
    ):
        # The R-tree backend probes only its deletions; each delete
        # span carries the points its probe pulled.
        monkeypatch.setenv("REPRO_TRACE", "1")
        rng = random.Random(43)
        pts_p = _uniform(rng, 300, 0)
        pts_q = _uniform(rng, 300, 50_000)
        dyn = DynamicRCJ(pts_p, pts_q, bounds=Rect(0, 0, 1000, 1000))
        dyn.apply_batch(deletes=[(pts_p[0], "P"), (pts_q[0], "Q")])
        spans = dyn.last_batch_trace.find("dynamic-delete")
        assert len(spans) == 2
        assert all(0 < span.counters["streamed"] <= 64 for span in spans)
