"""The batched bisector kernel of the columnar dynamic backend.

:meth:`DynamicArrayRCJ._neighbourhoods` answers every probe of a repair
with one batched pass: windows, the bisector programs of
:func:`repro.engine.streaming.bisector_cells`, and a re-query of the
probes whose horizon reaches past their window.  A probe's emitted rows
must hold every partner a repair needs.  In general position that is
every Delaunay neighbour of the probe in ``live ∪ {x}`` whose Voronoi
edge with it meets the live span, and since the constraint rows make
the cell exact, nothing but Delaunay neighbours.  The named cases pin
the edges: a probe on the live span's boundary, coincident probes, a
lattice probe whose diagonal neighbours touch its cell only at a
vertex, and a probe whose nearest rows all lie on one side.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import Delaunay, Voronoi

import repro.engine.streaming as streaming
from repro.engine import run_join
from repro.engine.streaming import DynamicArrayRCJ, _Union
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.workloads.moving import FleetSimulator
from tests.fuzz.test_dynamic_fuzz import REGRESSIONS

BOUNDS = Rect(0, 0, 1000, 1000)


def _probe(ps, qs, x, side=None, bounds=BOUNDS):
    """Run one probe at ``x`` over the live ``ps``/``qs``.

    ``side`` None probes a deleted point (``x`` is not live); "P" or
    "Q" probes an insert, ``x`` live on that side.  Returns the emitted
    ``(side, oid)`` set, ``streamed`` and ``spills``.
    """
    if side == "P":
        ps = ps + [x]
    elif side == "Q":
        qs = qs + [x]
    dyn = DynamicArrayRCJ(ps, qs, bounds=bounds)
    union = _Union.of(dyn._union_sources())
    _probe_idx, rows, streamed, spills = DynamicArrayRCJ._neighbourhoods(
        np.array([[x.x, x.y]]),
        np.array([{None: -1, "P": 0, "Q": 1}[side]]),
        np.array([x.oid]),
        1 if side is None else 0,
        union,
        dyn._live_span(union),
    )
    emitted = {
        ("Q" if union.is_q[r] else "P", int(union.oid[r])) for r in rows
    }
    return emitted, streamed, spills


def _delaunay_neighbours(ps, qs, x, span=None):
    """``(side, oid)`` of every Delaunay neighbour of ``x`` in
    ``ps ∪ qs ∪ {x}``; with ``span``, only those whose Voronoi edge
    with ``x`` meets that box (the ones with a witness centre in it)."""
    live = [("P", p) for p in ps] + [("Q", q) for q in qs]
    coords = np.array([(pt.x, pt.y) for _s, pt in live] + [(x.x, x.y)])
    me = len(live)
    if span is None:
        indptr, indices = Delaunay(coords).vertex_neighbor_vertices
        ring = indices[indptr[me] : indptr[me + 1]]
        return {(live[j][0], live[j][1].oid) for j in ring}
    vor = Voronoi(coords)
    centre = coords.mean(axis=0)
    out = set()
    for (i, j), ends in zip(vor.ridge_points, vor.ridge_vertices):
        if me not in (i, j):
            continue
        other = j if i == me else i
        if -1 in ends:
            # An unbounded edge: the ray scipy's voronoi_plot_2d draws.
            start = vor.vertices[max(ends)]
            t = coords[other] - coords[me]
            normal = np.array([-t[1], t[0]])
            mid = (coords[other] + coords[me]) / 2
            direction = np.sign(np.dot(mid - centre, normal)) * normal
            reach = np.inf
        else:
            start, end = vor.vertices[ends[0]], vor.vertices[ends[1]]
            direction, reach = end - start, 1.0
        if _meets(start, direction, reach, span):
            out.add((live[other][0], live[other][1].oid))
    return out


def _meets(start, direction, reach, box):
    """Whether ``start + t·direction``, ``0 <= t <= reach``, meets
    ``box`` (Liang–Barsky)."""
    t0, t1 = 0.0, reach
    for axis in (0, 1):
        lo, hi = box[axis], box[axis + 2]
        if direction[axis] == 0.0:
            if not lo <= start[axis] <= hi:
                return False
            continue
        a = (lo - start[axis]) / direction[axis]
        b = (hi - start[axis]) / direction[axis]
        t0, t1 = max(t0, min(a, b)), min(t1, max(a, b))
    return t0 <= t1


def _span(ps, qs, x, bounds=BOUNDS):
    pts = ps + qs + [x]
    return (
        min(bounds.xmin, *(p.x for p in pts)),
        min(bounds.ymin, *(p.y for p in pts)),
        max(bounds.xmax, *(p.x for p in pts)),
        max(bounds.ymax, *(p.y for p in pts)),
    )


def _sides(rng, n):
    xy = rng.uniform(0, 1000, size=(n, 2))
    side_q = rng.random(n) < 0.5
    side_q[:2] = (False, True)  # both sides non-empty
    points = [Point(x, y, i) for i, (x, y) in enumerate(xy)]
    ps = [pt for pt, q in zip(points, side_q) if not q]
    qs = [pt for pt, q in zip(points, side_q) if q]
    return ps, qs


@pytest.mark.parametrize("window", (1, 32))
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 120),
    side=st.sampled_from((None, "P", "Q")),
)
def test_emits_the_delaunay_neighbours_that_reach_the_span(
    window, seed, n, side
):
    # Random floats: general position with probability one.  A partner
    # a repair needs has a witness centre on its Voronoi edge with x,
    # inside the live span, so every Delaunay neighbour whose edge
    # meets the span must be emitted; since the cell is exact, nothing
    # but Delaunay neighbours is.
    rng = np.random.default_rng(seed)
    ps, qs = _sides(rng, n)
    x = Point(*rng.uniform(0, 1000, size=2), 10**6)
    with mock.patch.object(streaming, "_WINDOW", window):
        emitted, _streamed, spills = _probe(ps, qs, x, side)
    assert _delaunay_neighbours(ps, qs, x, _span(ps, qs, x)) <= emitted
    assert emitted <= _delaunay_neighbours(ps, qs, x), "cell not exact"
    if window == 32 and n <= 64:
        assert spills == 0  # every source fits in one window


@pytest.mark.parametrize("side", (None, "P"))
@pytest.mark.parametrize("where", ("corner", "edge", "outside"))
def test_probe_on_the_span_boundary(side, where):
    # A probe on the hull has a cell that reaches the box: the box
    # bounds its horizon, so it spills nowhere and streams only its
    # neighbourhood, not the whole union.
    rng = np.random.default_rng(5)
    ps, qs = _sides(rng, 1000)
    x = Point(*{"corner": (0.0, 0.0), "edge": (1000.0, 500.0),
                "outside": (1200.0, -50.0)}[where], 10**6)
    emitted, streamed, spills = _probe(ps, qs, x, side)
    assert _delaunay_neighbours(ps, qs, x, _span(ps, qs, x)) <= emitted
    assert emitted <= _delaunay_neighbours(ps, qs, x)
    assert spills == 0
    assert streamed < 64


def test_coincident_twin_of_a_victim_frees_nothing():
    rng = np.random.default_rng(11)
    ps, qs = _sides(rng, 200)
    twin = qs[3]
    victim = Point(twin.x, twin.y, 10**6)
    emitted, streamed, _spills = _probe(ps, qs, victim)
    assert emitted == set()
    assert streamed > 0
    # Without the twin, the same victim frees its neighbourhood.
    rest = [q for q in qs if q is not twin]
    freed, _streamed, _spills = _probe(ps, rest, victim)
    assert freed == _delaunay_neighbours(ps, rest, victim)


def test_coincident_insert_is_emitted():
    # A zero-radius ring with a coincident partner is a legal pair.
    rng = np.random.default_rng(12)
    ps, qs = _sides(rng, 200)
    partner = qs[7]
    x = Point(partner.x, partner.y, 10**6)
    emitted, _streamed, _spills = _probe(ps, qs, x, "P")
    assert ("Q", partner.oid) in emitted
    dyn = DynamicArrayRCJ(ps, qs, bounds=BOUNDS)
    dyn.insert(x, "P")
    assert (x.oid, partner.oid) in dyn.pair_keys()
    fresh = run_join(ps + [x], qs, engine="array")
    assert dyn.pair_keys() == fresh.pair_keys()


@pytest.mark.parametrize("angle", (0.0, 0.3, 2.2))
@pytest.mark.parametrize("step", (1.0, 0.1, 1 / 3, 1e-7))
@pytest.mark.parametrize("side", (None, "P"))
def test_lattice_probe_emits_its_diagonal_neighbours(angle, step, side):
    # On a square lattice each diagonal neighbour touches the probe's
    # cell only at a vertex: its interval is a single point, which the
    # touch slack keeps when rounding (a rotated, shifted lattice)
    # would empty it.  The ring with a diagonal neighbour has the two
    # other corners on its boundary, not inside, so it may be a pair.
    c, s = math.cos(angle), math.sin(angle)
    x0, y0 = 123.456 * step, 789.012 * step
    ps, qs = [], []
    for i in range(-4, 5):
        for j in range(-4, 5):
            if (i, j) != (0, 0):
                (ps if (i + j) % 2 else qs).append(Point(
                    x0 + step * (c * i - s * j),
                    y0 + step * (s * i + c * j),
                    100 * i + j,
                ))
    x = Point(x0, y0, 10**6)
    bounds = Rect(x0 - 6 * step, y0 - 6 * step, x0 + 6 * step, y0 + 6 * step)
    emitted, _streamed, _spills = _probe(ps, qs, x, side, bounds=bounds)
    ring = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j]
    assert emitted == {
        ("P" if (i + j) % 2 else "Q", 100 * i + j) for i, j in ring
    }


def test_one_sided_first_cell_takes_step_three_without_requery():
    # The 16 nearest rows all lie right of the probe, so their cell
    # runs left to the box and its horizon passes the window's cut.
    # Every row below the cut (the Q rows on the left included) then
    # bounds the cell well inside the cut: no re-query.
    rng = np.random.default_rng(13)
    angles = np.linspace(-1.2, 1.2, 16)
    right = [Point(np.cos(a), np.sin(a), i) for i, a in enumerate(angles)]
    far = [
        Point(r * np.cos(a), r * np.sin(a), 100 + i)
        for i, (r, a) in enumerate(
            zip(rng.uniform(20, 50, 300), rng.uniform(0, 2 * np.pi, 300))
        )
    ]
    left = [
        Point(-2.5 * np.cos(a), 2.5 * np.sin(a), 1000 + i)
        for i, a in enumerate(np.linspace(-1.0, 1.0, 20))
    ]
    ps, qs = right + far, left
    x = Point(0.0, 0.0, 10**6)
    bounds = Rect(-50, -50, 50, 50)
    calls = []
    kernel = streaming.bisector_cells

    def recording(zx, zy, near, n, box, slack):
        calls.append(n.copy())
        return kernel(zx, zy, near, n, box, slack)

    with mock.patch.object(streaming, "bisector_cells", recording):
        emitted, _streamed, spills = _probe(ps, qs, x, bounds=bounds)
    assert spills == 0
    (first,), (last,) = calls
    assert first == 16
    # Every row below the cut, which P's 32nd row sets: the 16 on the
    # right, the 15 far P rows nearer than it and the 20 on the left.
    assert last == 16 + 15 + 20
    assert _delaunay_neighbours(ps, qs, x) == emitted
    assert {side for side, _oid in emitted} == {"P", "Q"}


def test_candidates_are_never_in_the_result_already():
    # The repair stores verified candidates without a membership check:
    # a ring that held a victim was no pair, and every pair of an
    # inserted oid was killed first.  A stored duplicate would leave a
    # second ring column behind, so the columns would outgrow the pairs.
    sim = FleetSimulator(300, 300, seed=23)
    dyn = DynamicArrayRCJ(*sim.initial_points(), bounds=sim.bounds)
    for step, batch in enumerate(sim.batch_stream(64, ticks=10_000)):
        if step == 30:
            break
        dyn.apply_batch(batch.inserts, batch.deletes)
        assert len(dyn._rings) == len(dyn), step
    for name, case in sorted(REGRESSIONS.items()):
        coords_p, coords_q, bounds, batches = case
        dyn = DynamicArrayRCJ(
            [Point(x, y, i) for i, (x, y) in enumerate(coords_p)],
            [Point(x, y, i) for i, (x, y) in enumerate(coords_q)],
            bounds=Rect(*bounds),
        )
        for inserts, deletes, valid in batches:
            if valid:
                dyn.apply_batch(
                    [(Point(x, y, o), s) for x, y, o, s in inserts],
                    [(Point(x, y, o), s) for x, y, o, s in deletes],
                )
                assert len(dyn._rings) == len(dyn), name
