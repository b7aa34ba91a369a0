"""The batched probe window of the columnar dynamic backend.

Each repair of :class:`DynamicArrayRCJ` reads one KD window of
``_WINDOW`` nearest rows per union source for all of its probes, and a
probe continues into per-source streams only past its window's cut (a
*spill*).  At the default window the fuzz populations (at most 28
points) fit in one window, so the cut and the continuation never run
there.  This suite shrinks the window to 1 and 2 rows, where nearly
every probe spills and equal distances straddle the cut, and checks
that the maintained pairs still equal a from-scratch join after every
batch.  It also pins the ``probe_spills`` trace counter and the one
KD query per source a batch makes.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given

import repro.engine.streaming as streaming
from repro.engine import run_join
from repro.engine.streaming import DynamicArrayRCJ
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.workloads.moving import FleetSimulator
from tests.fuzz.strategies import dynamic_cases
from tests.fuzz.test_dynamic_fuzz import REGRESSIONS, _assert_backends_track

SMALL_WINDOWS = (1, 2)

COUNTERS = ("streamed", "candidates", "added", "probe_spills")


def _fresh_keys(ps, qs):
    if not ps or not qs:
        return set()
    return run_join(list(ps), list(qs), engine="array").pair_keys()


def _batch_counters(dyn, inserts=(), deletes=()):
    dyn.apply_batch(inserts, deletes)
    return dyn.last_batch_trace.counters


@pytest.mark.parametrize("window", SMALL_WINDOWS)
@given(case=dynamic_cases())
def test_fuzz_cases_at_small_windows(window, case):
    with mock.patch.object(streaming, "_WINDOW", window):
        _assert_backends_track(*case)


@pytest.mark.parametrize("window", SMALL_WINDOWS)
@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_fuzz_regressions_at_small_windows(window, name):
    with mock.patch.object(streaming, "_WINDOW", window):
        _assert_backends_track(*REGRESSIONS[name])


def _replay_fleet(monkeypatch, window):
    """50 batch-64 steps of a 300 x 300 fleet; returns each batch's
    ``(streamed, candidates, added, probe_spills)`` counters."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    sim = FleetSimulator(300, 300, seed=17)
    ps, qs = sim.initial_points()
    live = {"P": {p.oid: p for p in ps}, "Q": {q.oid: q for q in qs}}
    seen = []
    with mock.patch.object(streaming, "_WINDOW", window):
        dyn = DynamicArrayRCJ(ps, qs, bounds=sim.bounds)
        for step, batch in enumerate(sim.batch_stream(64, ticks=10_000)):
            if step == 50:
                break
            for point, side in batch.deletes:
                del live[side][point.oid]
            for point, side in batch.inserts:
                live[side][point.oid] = point
            c = _batch_counters(dyn, batch.inserts, batch.deletes)
            want = _fresh_keys(live["P"].values(), live["Q"].values())
            assert dyn.pair_keys() == want, f"window {window}, batch {step}"
            seen.append(tuple(c[name] for name in COUNTERS))
    return seen


def test_fleet_at_small_windows_pulls_what_the_default_pulls(monkeypatch):
    # Fleet fixes are random floats: no two distances from a probe tie,
    # so every window size must hand the clip loop the same sequence.
    default = _replay_fleet(monkeypatch, streaming._WINDOW)
    assert sum(row[3] for row in default) == 0
    for window in SMALL_WINDOWS:
        small = _replay_fleet(monkeypatch, window)
        assert [row[:3] for row in small] == [row[:3] for row in default]
        assert sum(row[3] for row in small) > 0


def _lattice(n: int, step: float):
    """A checkerboard of P and Q points: every lattice point has four
    opposite-side neighbours at one equal distance."""
    ps, qs = [], []
    for i in range(n):
        for j in range(n):
            side = ps if (i + j) % 2 == 0 else qs
            side.append(Point(i * step, j * step, 1000 * i + j))
    return ps, qs


@pytest.mark.parametrize("window", SMALL_WINDOWS + (32,))
def test_lattice_ties_dead_rows_and_own_oid_straddle_the_cut(
    monkeypatch, window
):
    # The two P points nearest the cell centre (350, 350) are deleted,
    # so at window 2 both rows of the P main tree's window are dead;
    # the Q point moved onto that centre is its own only buffer row, at
    # distance 0; the four remaining lattice points around it tie, as
    # do the four neighbours of each victim, so equal distances
    # straddle every cut.
    monkeypatch.setenv("REPRO_TRACE", "1")
    ps, qs = _lattice(8, 100.0)
    by_oid = {("P", p.oid): p for p in ps} | {("Q", q.oid): q for q in qs}
    live = dict(by_oid)
    batches = [
        (
            [(Point(350.0, 350.0, 1006), "Q")],
            [(by_oid[("P", 3003)], "P"), (by_oid[("P", 4004)], "P"),
             (by_oid[("Q", 1006)], "Q")],
        ),
        (
            [(Point(300.0, 300.0, 3003), "P"), (Point(450.0, 250.0, 9), "Q")],
            [(by_oid[("Q", 3004)], "Q"), (by_oid[("Q", 4003)], "Q")],
        ),
    ]
    spills = 0
    with mock.patch.object(streaming, "_WINDOW", window):
        dyn = DynamicArrayRCJ(ps, qs, bounds=Rect(0, 0, 700, 700))
        for inserts, deletes in batches:
            for point, side in deletes:
                del live[(side, point.oid)]
            for point, side in inserts:
                live[(side, point.oid)] = point
            spills += _batch_counters(dyn, inserts, deletes)["probe_spills"]
            want = _fresh_keys(
                [p for (s, _o), p in live.items() if s == "P"],
                [q for (s, _o), q in live.items() if s == "Q"],
            )
            assert dyn.pair_keys() == want
    assert (spills > 0) == (window < 32)


class TestProbeSpills:
    def test_uniform_fleet_batch_reads_no_spill(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        sim = FleetSimulator(2000, 2000, seed=3)
        dyn = DynamicArrayRCJ(*sim.initial_points(), bounds=sim.bounds)
        batch = next(sim.batch_stream(64, ticks=10))
        counters = _batch_counters(dyn, batch.inserts, batch.deletes)
        assert counters["candidates"] > 0
        assert counters["probe_spills"] == 0

    def test_corner_probe_far_from_a_cluster_spills(self, monkeypatch):
        # A point at the domain's corner has a huge Voronoi cell: its
        # horizon reaches far past the 32 nearest rows of each side.
        monkeypatch.setenv("REPRO_TRACE", "1")
        rng = random.Random(29)
        cluster = [
            Point(rng.gauss(5000, 30), rng.gauss(5000, 30), i)
            for i in range(2000)
        ]
        ps, qs = cluster[0::2], cluster[1::2]
        dyn = DynamicArrayRCJ(ps, qs, bounds=Rect(0, 0, 10000, 10000))
        corner = Point(0.0, 0.0, 5000)
        counters = _batch_counters(dyn, inserts=[(corner, "P")])
        assert counters["probe_spills"] >= 1
        assert dyn.pair_keys() == _fresh_keys(ps + [corner], qs)


class _CountingTree:
    """A KD-tree that counts its ``query`` calls."""

    def __init__(self, tree):
        self.tree = tree
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.tree, name)

    def query(self, *args, **kwargs):
        self.calls += 1
        return self.tree.query(*args, **kwargs)


def test_a_batch_without_spills_queries_each_source_once(monkeypatch):
    # Guards against per-probe KD queries coming back: the probes of a
    # whole batch share one query per source.  Verification sees the
    # unwrapped trees, so only probe queries are counted.
    monkeypatch.setenv("REPRO_TRACE", "1")
    wrapped = []
    union_sources = DynamicArrayRCJ._union_sources
    verify_sources = DynamicArrayRCJ._verify_sources

    def counting_sources(self):
        sources = [
            src._replace(tree=_CountingTree(src.tree))
            for src in union_sources(self)
        ]
        wrapped.extend(src.tree for src in sources)
        return sources

    def plain_verify(self, px, py, qx, qy, sources):
        sources = [src._replace(tree=src.tree.tree) for src in sources]
        return verify_sources(self, px, py, qx, qy, sources)

    sim = FleetSimulator(2000, 2000, seed=4)
    ps, qs = sim.initial_points()
    dyn = DynamicArrayRCJ(ps, qs, bounds=sim.bounds)
    batch = next(sim.batch_stream(64, ticks=10))
    # Move one depot too, so both sides have an insert buffer.
    moved = {p.oid for p, side in batch.deletes if side == "Q"}
    depot = next(q for q in qs if q.oid not in moved)
    moved_depot = Point(depot.x + 1, depot.y + 1, depot.oid)
    inserts = batch.inserts + [(moved_depot, "Q")]
    deletes = batch.deletes + [(depot, "Q")]
    monkeypatch.setattr(DynamicArrayRCJ, "_union_sources", counting_sources)
    monkeypatch.setattr(DynamicArrayRCJ, "_verify_sources", plain_verify)
    counters = _batch_counters(dyn, inserts, deletes)
    assert counters["probe_spills"] == 0
    # Both sides' main trees and insert buffers.
    assert len(wrapped) == 4
    assert [tree.calls for tree in wrapped] == [1, 1, 1, 1]
