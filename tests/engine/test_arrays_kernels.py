"""Unit tests for the engine's columnar representation and kernels."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial import cKDTree

from repro.datasets import worstcase
from repro.datasets.fixtures import uniform_pair
from repro.engine import run_join, run_topk
from repro.engine.arrays import NonFiniteCoordinateError, PointArray
from repro.engine.kernels import (
    SETTLED_ALIVE,
    SETTLED_DEAD,
    UNSETTLED,
    _arcs_contain,
    _site_groups,
    cells_intersect,
    cover_arcs,
    halfplane_prune_pairs,
    knn_candidate_blocks,
    pack_cells,
    rcj_candidates,
    verify_rings_batch,
)
from repro.engine.operators import (
    CandidateBlock,
    JoinContext,
    VerifyRings,
)
from repro.geometry.point import Point
from repro.geometry.polygon import convex_polygons_intersect
from repro.obs.trace import counter_totals, trace


class TestPointArray:
    def test_round_trip_preserves_everything(self):
        points = [Point(1.5, -2.0, 7), Point(0.0, 3.25, 42)]
        arr = PointArray.from_points(points)
        assert arr.to_points() == points
        assert len(arr) == 2
        assert arr[1] == points[1]
        assert list(arr) == points

    def test_from_coords_assigns_sequential_oids(self):
        arr = PointArray.from_coords([(0.0, 1.0), (2.0, 3.0)], start_oid=5)
        assert arr.oid.tolist() == [5, 6]
        assert arr.coords().tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_empty(self):
        arr = PointArray.from_points([])
        assert len(arr) == 0
        assert arr.to_points() == []

    def test_immutable(self):
        arr = PointArray.from_coords([(0.0, 0.0)])
        with pytest.raises(AttributeError):
            arr.x = np.zeros(1)
        with pytest.raises(ValueError):
            arr.x[0] = 1.0  # numpy write flag

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PointArray([0.0, 1.0], [0.0])
        with pytest.raises(ValueError):
            PointArray([0.0], [0.0], oid=[1, 2])
        with pytest.raises(ValueError):
            PointArray.from_coords(np.zeros((2, 3)))


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestNonFiniteCoordinates:
    """NaN and infinite coordinates are rejected where points enter the
    columnar engine, naming the first offending row."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_constructors_name_the_first_offending_index(self, bad):
        with pytest.raises(NonFiniteCoordinateError, match="index 2"):
            PointArray([0.0, 1.0, bad, bad], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(NonFiniteCoordinateError, match="index 1"):
            PointArray.from_coords([(0.0, 0.0), (1.0, bad)])
        points = [Point(0.0, 0.0, 0), Point(1.0, 1.0, 1), Point(bad, 2.0, 2)]
        with pytest.raises(NonFiniteCoordinateError, match="index 2"):
            PointArray.from_points(points)
        assert issubclass(NonFiniteCoordinateError, ValueError)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("side", ("p", "q"))
    def test_run_join_and_run_topk_reject(self, bad, side):
        points_p, points_q = uniform_pair(40, 50, seed=3)
        points = points_p if side == "p" else points_q
        victim = points[7]
        points[7] = Point(victim.x, bad, victim.oid)
        with pytest.raises(NonFiniteCoordinateError, match="index 7"):
            run_join(points_p, points_q, engine="array")
        with pytest.raises(NonFiniteCoordinateError, match="index 7"):
            run_topk(points_p, points_q, 5, engine="array")


def _prune_window(nx, ny):
    """Ψ− pruning of one probe at the origin's window ``(nx, ny)``
    against that same window, as the exact scan applies it."""
    k = len(nx)
    return halfplane_prune_pairs(
        np.array(nx), np.array(ny),
        np.broadcast_to(np.array(nx), (k, k)),
        np.broadcast_to(np.array(ny), (k, k)),
        np.zeros(k), np.zeros(k),
    )


class TestHalfplaneKernels:
    def test_window_prune_matches_pointwise_halfplane(self):
        # One probe, three neighbours: n1 at (1, 0) prunes n2 at (3, 0)
        # (n2 is behind n1's Ψ− line) but not n3 at (0, 2).
        pruned = _prune_window([1.0, 3.0, 0.0], [0.0, 0.0, 2.0])
        assert pruned.tolist() == [False, True, False]

    def test_coincident_neighbours_never_prune(self):
        # First neighbour == probe, then two coincident candidates.
        pruned = _prune_window([0.0, 2.0, 2.0], [0.0, 0.0, 0.0])
        # The probe-coincident point has a degenerate Ψ−; the coincident
        # duplicates sit on each other's ring boundary: nothing dies.
        assert not pruned.any()

    def test_pair_prune_is_exact_brute_negation(self):
        # Pruner exactly on the ring boundary of <c, q> contributes a
        # dot of exactly zero and must not prune.
        pruned = halfplane_prune_pairs(
            cx=np.array([2.0]),
            cy=np.array([0.0]),
            px=np.array([[1.0]]),  # midpoint of the ring: strictly inside
            py=np.array([[1.0]]),  # ... at (1, 1): on the boundary
            qx=np.array([0.0]),
            qy=np.array([0.0]),
        )
        assert pruned.tolist() == [False]
        pruned = halfplane_prune_pairs(
            cx=np.array([2.0]),
            cy=np.array([0.0]),
            px=np.array([[1.0]]),
            py=np.array([[0.5]]),  # strictly inside the ring
            qx=np.array([0.0]),
            qy=np.array([0.0]),
        )
        assert pruned.tolist() == [True]


#: Directions sampled around a probe by the coverage tests.
_DIRECTIONS = np.linspace(-np.pi, np.pi, 721)


def _covered(nx, ny, ndist):
    """``(any_valid, covered directions)`` of one probe at the origin."""
    starts, ends, any_valid = cover_arcs(
        np.zeros(1), np.zeros(1), nx, ny, ndist, 1e-12
    )
    return bool(any_valid[0]), _arcs_contain(starts[0], ends[0], _DIRECTIONS)


class TestCoverArcs:
    def test_surrounded_probe_is_covered(self):
        # Eight close neighbours all around, window radius much larger.
        angles = np.linspace(0.0, 2 * np.pi, 9)[:-1]
        nx = np.cos(angles)[None, :]
        ny = np.sin(angles)[None, :]
        ndist = np.ones((1, 8))
        ndist[0, -1] = 10.0  # pretend the window reaches far out
        valid, covered = _covered(nx, ny, np.sort(ndist))
        assert valid and covered.all()

    def test_one_sided_probe_is_not_covered(self):
        # All neighbours to the right: directions to the left are open.
        nx = np.array([[1.0, 1.2, 1.4, 2.0]])
        ny = np.array([[0.1, -0.1, 0.2, 0.0]])
        valid, covered = _covered(nx, ny, np.hypot(nx, ny))
        assert valid and covered.any()
        assert not covered[np.abs(np.abs(_DIRECTIONS) - np.pi) < 0.5].any()

    def test_coincident_neighbours_certify_nothing(self):
        valid, _covered_dirs = _covered(
            np.zeros((1, 4)), np.zeros((1, 4)), np.zeros((1, 4))
        )
        assert not valid


class TestVerifyRings:
    def test_blocker_kills_candidate_and_boundary_does_not(self):
        # Union holds the endpoints, one strict insider, one boundary
        # point; pair 0 dies, pair 1 (elsewhere) survives.
        ux = np.array([0.0, 2.0, 1.0, 1.0, 10.0, 12.0])
        uy = np.array([0.0, 0.0, 0.5, 1.0, 10.0, 10.0])
        tree = cKDTree(np.column_stack((ux, uy)))
        alive = verify_rings_batch(
            px=np.array([0.0, 10.0]),
            py=np.array([0.0, 10.0]),
            qx=np.array([2.0, 12.0]),
            qy=np.array([0.0, 10.0]),
            union_tree=tree,
            ux=ux,
            uy=uy,
        )
        assert alive.tolist() == [False, True]

    def test_coincident_pair_trivially_survives(self):
        ux = np.array([5.0, 5.0, 5.0])
        uy = np.array([5.0, 5.0, 5.0])
        tree = cKDTree(np.column_stack((ux, uy)))
        alive = verify_rings_batch(
            px=np.array([5.0]),
            py=np.array([5.0]),
            qx=np.array([5.0]),
            qy=np.array([5.0]),
            union_tree=tree,
            ux=ux,
            uy=uy,
        )
        assert alive.tolist() == [True]

    def test_dead_window_with_live_blocker_further_in_dies(self):
        # The 4 union rows nearest the midpoint are dead; the live
        # blocker behind them is found by the fallback.
        ux = np.array([-10.0, 10.0, 0.0, 0.0, 0.1, -0.1, 5.0])
        uy = np.array([0.0, 0.0, 0.1, -0.1, 0.0, 0.0, 0.0])
        live = np.array([True, True, False, False, False, False, True])
        ring = [(-10.0, 0.0, 10.0, 0.0)]
        assert _verify_traced(ring, ux, uy, blocker_alive=live) == ([False], 1)
        live[-1] = False
        assert _verify_traced(ring, ux, uy, blocker_alive=live) == ([True], 1)

    def test_points_on_the_circle_survive_via_fallback(self):
        # 3-4-5 triangles: every other point lies exactly on the ring
        # (the predicate is exactly 0), so the whole window sits inside
        # the inflated ball and the ball query settles the ring.
        on_ring = [(3, 4), (-3, 4), (3, -4), (-3, -4), (0, 5), (0, -5)]
        pts = np.array([(-5, 0), (5, 0), *on_ring, (40, 40)], dtype=float)
        alive, fallback = _verify_traced(
            [(-5.0, 0.0, 5.0, 0.0)], pts[:, 0], pts[:, 1]
        )
        assert alive == [True]
        assert fallback == 1

    def test_coincident_pair_among_duplicates_skips_fallback(self):
        ux = np.full(6, 5.0)
        uy = np.full(6, 5.0)
        assert _verify_traced([(5.0, 5.0, 5.0, 5.0)], ux, uy) == ([True], 0)

    @given(st.data())
    def test_matches_brute_predicate(self, data):
        ux, uy, px, py, qx, qy, blocker_alive = data.draw(_ring_batches())
        tree = cKDTree(np.column_stack((ux, uy)))
        alive = verify_rings_batch(
            px, py, qx, qy, tree, ux, uy, blocker_alive=blocker_alive
        )
        live = (
            np.ones(len(ux), dtype=bool) if blocker_alive is None
            else blocker_alive
        )
        t = (ux - px[:, None]) * (ux - qx[:, None]) + (
            uy - py[:, None]
        ) * (uy - qy[:, None])
        expected = ~((t < 0.0) & live).any(axis=1)
        assert alive.tolist() == expected.tolist()

    def test_wide_rings_verify_in_bounded_memory(self):
        # 200 rings, each holding thousands of the union's 20k points:
        # a ball query would materialize every one of them.
        rng = np.random.default_rng(3)
        u = rng.random((20_000, 2))
        tree = cKDTree(u)
        a = rng.uniform(0, 2 * np.pi, 200)
        px, py = 0.5 + 0.3 * np.cos(a), 0.5 + 0.3 * np.sin(a)
        qx, qy = 1.0 - px, 1.0 - py
        tracemalloc.start()
        try:
            alive = verify_rings_batch(px, py, qx, qy, tree, u[:, 0], u[:, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not alive.any()
        assert peak < 8 * 2**20


def _verify_traced(rings, ux, uy, blocker_alive=None):
    """``(survivor list, ring_fallback count)`` of one traced verify."""
    px, py, qx, qy = (np.array(c, dtype=float) for c in zip(*rings))
    tree = cKDTree(np.column_stack((ux, uy)))
    with trace("verify") as root:
        alive = verify_rings_batch(
            px, py, qx, qy, tree, ux, uy, blocker_alive=blocker_alive
        )
    assert root is not None, "the suite needs tracing enabled"
    return alive.tolist(), counter_totals(root).get("ring_fallback", 0)


#: Adversarial unions, laid out in ``[0, 10000]^2``.
_UNIONS = {
    "collinear": lambda n, seed: worstcase.collinear(n, seed=seed),
    "jittered": lambda n, seed: worstcase.collinear(n, jitter=1.0, seed=seed),
    "cocircular": lambda n, seed: worstcase.cocircular(n),
    "lattice": lambda n, seed: worstcase.lattice(n),
    "two_clusters": lambda n, seed: worstcase.two_clusters(n, seed=seed),
    "coincident": lambda n, seed: worstcase.coincident(n),
}


@st.composite
def _ring_batches(draw):
    """A union (one of :data:`_UNIONS`, 1-3 points or more) at an
    extreme scale and translation, rings over its points plus a few
    outsiders, and an optional liveness mask."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 48)))
    pts = _UNIONS[draw(st.sampled_from(sorted(_UNIONS)))](
        n, draw(st.integers(0, 2**16))
    )
    xy = np.array([(p.x, p.y) for p in pts], dtype=float) / 10_000.0
    scale = 10.0 ** draw(st.integers(-6, 9))
    shift = draw(st.sampled_from([0.0, 1.0, -1e3, 1e6, -1e9]))
    xy = xy * scale + shift
    extra = np.array(
        draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=3)),
        dtype=float,
    ).reshape(-1, 2) * scale + shift
    ends = np.vstack((xy, extra))
    idx = st.integers(0, len(ends) - 1)
    pairs = np.array(
        draw(st.lists(st.tuples(idx, idx), min_size=1, max_size=24))
    )
    live = st.lists(st.booleans(), min_size=len(xy), max_size=len(xy))
    mask = draw(st.none() | live)
    p, q = ends[pairs[:, 0]], ends[pairs[:, 1]]
    return (
        xy[:, 0], xy[:, 1], p[:, 0], p[:, 1], q[:, 0], q[:, 1],
        None if mask is None else np.array(mask, dtype=bool),
    )


class TestCandidateGeneration:
    def test_candidates_are_a_superset_of_true_pairs(self):
        from repro.core.brute import brute_force_rcj

        points_p, points_q = uniform_pair(80, 90, seed=3)
        parr = PointArray.from_points(points_p)
        qarr = PointArray.from_points(points_q)
        q_idx, p_idx = knn_candidate_blocks(parr, qarr)
        candidates = {
            (int(parr.oid[pi]), int(qarr.oid[qi]))
            for qi, pi in zip(q_idx, p_idx)
        }
        # Pairs blocked only by Q points still pass candidate
        # generation (blockers there come from P alone), so compare
        # against the P-side-only join.
        truth = {r.key() for r in brute_force_rcj(points_p, points_q)}
        assert truth <= candidates

    def test_candidates_deduplicated(self):
        points_p, points_q = uniform_pair(50, 60, seed=4)
        parr = PointArray.from_points(points_p)
        qarr = PointArray.from_points(points_q)
        q_idx, p_idx = knn_candidate_blocks(parr, qarr, k0=1)
        seen = set(zip(q_idx.tolist(), p_idx.tolist()))
        assert len(seen) == len(q_idx)

    def test_empty_sides(self):
        empty = PointArray.empty()
        full = PointArray.from_coords([(0.0, 0.0), (1.0, 1.0)])
        assert knn_candidate_blocks(empty, full)[0].size == 0
        assert knn_candidate_blocks(full, empty)[0].size == 0

    def test_candidates_leave_in_canonical_order(self):
        # Lattice sites are cocircular and the coincident pile is
        # scanned: the triangulation's edges, the cluster pairs and the
        # scanned rows all merge into one (q_index, p_index) order.
        points_p, points_q = worstcase.split_alternating(
            worstcase.lattice(64) + worstcase.coincident(6)
        )
        q_idx, p_idx = knn_candidate_blocks(
            PointArray.from_points(points_p), PointArray.from_points(points_q)
        )
        assert q_idx.size
        assert np.array_equal(np.lexsort((p_idx, q_idx)), np.arange(q_idx.size))


def _arrays(coords_p, coords_q) -> tuple[PointArray, PointArray]:
    return (
        PointArray.from_coords(np.array(coords_p, float).reshape(-1, 2)),
        PointArray.from_coords(np.array(coords_q, float).reshape(-1, 2)),
    )


def _ring_verdicts(parr, qarr, p_idx, q_idx) -> np.ndarray:
    """``verify_rings_batch`` over the whole union for the given rows."""
    ux = np.concatenate((parr.x, qarr.x))
    uy = np.concatenate((parr.y, qarr.y))
    return verify_rings_batch(
        parr.x[p_idx], parr.y[p_idx], qarr.x[q_idx], qarr.y[q_idx],
        cKDTree(np.column_stack((ux, uy))), ux, uy,
    )


def settled_row_errors(coords_p, coords_q) -> tuple[int, int]:
    """``(wrong, settled)`` over the candidate rows of two coordinate
    lists: the rows whose settled verdict differs from
    ``verify_rings_batch`` over the union, and all settled rows."""
    parr, qarr = _arrays(coords_p, coords_q)
    q_idx, p_idx, verdict = rcj_candidates(parr, qarr)
    if not q_idx.size:
        return 0, 0
    settled = verdict != UNSETTLED
    truth = _ring_verdicts(parr, qarr, p_idx, q_idx)
    wrong = settled & ((verdict == SETTLED_ALIVE) != truth)
    return int(wrong.sum()), int(settled.sum())


def _coords(points) -> list[tuple[float, float]]:
    return [(p.x, p.y) for p in points]


#: Five sites 1e6 from the origin.  Qhull drops site 3 (it is one ulp
#: from site 2 in x), yet site 3 blocks the ring of sites 2 and 4:
#: ``t = -2.13e-14``.  P holds sites 2 and 0, Q sites 4, 1 and 3.  A
#: settle rule that leaves only the edges touching an unresolved site
#: to verification lets the pair ``(0, 0)`` through.
NEAR_COINCIDENT_SITES = [
    (1001.0019785460406, 1000005.077354005),
    (1001.0207398638802, 1000005.0812713425),
    (1009.0149231581356, 1000004.8480566649),
    (1009.014923158136, 1000004.8480566649),
    (1009.0774183292891, 1000004.8661024959),
]
NEAR_COINCIDENT = (
    [NEAR_COINCIDENT_SITES[i] for i in (2, 0)],
    [NEAR_COINCIDENT_SITES[i] for i in (4, 1, 3)],
)


class TestLocalGabriel:
    """The candidate stage's local Gabriel verdicts: every settled row
    agrees with ring verification over the whole union, and each guard
    has a fixture that a rule without it gets wrong."""

    @staticmethod
    def _join_matches_brute(coords_p, coords_q):
        from repro.core.brute import brute_force_rcj

        points_p = [Point(x, y, i) for i, (x, y) in enumerate(coords_p)]
        points_q = [Point(x, y, i) for i, (x, y) in enumerate(coords_q)]
        got = sorted(run_join(points_p, points_q, engine="array").pair_keys())
        want = sorted(r.key() for r in brute_force_rcj(points_p, points_q))
        assert got == want
        return got

    def test_a_dropped_site_turns_settling_off(self):
        # Guard (a): Qhull left site 3 out, so no edge may be settled
        # alive — not even those that do not touch it.
        assert self._join_matches_brute(*NEAR_COINCIDENT) == [
            (0, 1), (0, 2), (1, 1),
        ]
        assert settled_row_errors(*NEAR_COINCIDENT) == (0, 0)

    def test_both_opposite_vertices_are_tested(self):
        # Some rings of these edges are blocked only by the vertex
        # opposite the edge in the emitting simplex, some only by the
        # one in its neighbour: testing either alone settles a dead
        # row alive.
        coords_p, coords_q = map(_coords, uniform_pair(8, 8, seed=2))
        wrong, settled = settled_row_errors(coords_p, coords_q)
        assert wrong == 0 and settled > 0
        parr, qarr = _arrays(coords_p, coords_q)
        _q, _p, verdict = rcj_candidates(parr, qarr)
        assert (verdict == SETTLED_DEAD).any()
        self._join_matches_brute(coords_p, coords_q)

    def test_a_tied_simplex_leaves_its_edges_unsettled(self):
        # Guard (c), on a case the fuzz shrank: a regular 26-gon of
        # radius 4e4, split alternately.  Every simplex inside it is
        # tied.  The ring of a diameter passes through every other
        # vertex; rounding puts some of them strictly inside, but
        # neither of the diameter's opposite vertices, so settling the
        # edges of tied simplices lets that dead row through.
        coords = [(10.0 * p.x, 10.0 * p.y) for p in worstcase.cocircular(26)]
        coords_p, coords_q = coords[0::2], coords[1::2]
        wrong, settled = settled_row_errors(coords_p, coords_q)
        assert wrong == 0 and settled > 0
        self._join_matches_brute(coords_p, coords_q)

    def test_coincident_rows_are_settled_alive(self):
        coords = _coords(uniform_pair(30, 1, seed=8)[0])
        parr, qarr = _arrays(coords, coords[:5])
        q_idx, p_idx, verdict = rcj_candidates(parr, qarr)
        same = p_idx == q_idx
        assert same.sum() == 5
        assert (verdict[same] == SETTLED_ALIVE).all()

    def test_union_tree_is_built_only_for_unsettled_rows(self):
        from repro.engine.families import rcj_pipeline

        for points, settles_all in (
            (uniform_pair(200, 220, seed=3), True),
            (worstcase.split_alternating(worstcase.lattice(100)), False),
        ):
            parr = PointArray.from_points(points[0])
            qarr = PointArray.from_points(points[1])
            _q, _p, verdict = rcj_candidates(parr, qarr)
            assert (verdict != UNSETTLED).all() == settles_all
            ctx = JoinContext(parr, qarr)
            result = rcj_pipeline().run(ctx)
            assert (ctx._union is None) == settles_all
            assert len(result) == _ring_verdicts(parr, qarr, _p, _q).sum()

    def test_verdictless_block_is_verified_whole(self):
        parr, qarr = _arrays(*map(_coords, uniform_pair(40, 40, seed=4)))
        q_idx, p_idx, verdict = rcj_candidates(parr, qarr)
        truth = _ring_verdicts(parr, qarr, p_idx, q_idx)
        for block in (
            CandidateBlock(p_idx, q_idx),
            CandidateBlock(p_idx, q_idx, verdict=np.full_like(verdict, UNSETTLED)),
            CandidateBlock(p_idx, q_idx, verdict=verdict),
        ):
            out = VerifyRings().apply(JoinContext(parr, qarr), block)
            assert np.array_equal(out.p_idx, p_idx[truth])
            assert np.array_equal(out.q_idx, q_idx[truth])


#: Inputs of the site dedupe, as ``(x, y)`` lists: exact duplicates
#: across P and Q, both signs of zero in either coordinate, and one to
#: three distinct sites.
SITE_GROUP_CASES = {
    "duplicates_across_sides": [
        (3.0, 3.0), (1.0, 2.0), (3.0, 3.0), (1.0, 2.0), (1.0, 2.0),
        (0.5, 7.0), (3.0, 3.0),
    ],
    "signed_zeros": [
        (0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (1.0, 0.0), (-0.0, -0.0),
        (0.0, 0.0), (-0.0, 0.0), (2.0, 2.0), (0.0, -0.0),
    ],
    "one_site": [(5.0, 5.0)] * 4,
    "one_point": [(5.0, -0.0)],
    "two_sites": [(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)],
    "three_sites": [(0.0, 0.0), (2.0, 0.0), (-0.0, 0.0), (0.0, 2.0)],
}


class TestSiteGroups:
    @pytest.mark.parametrize("case", sorted(SITE_GROUP_CASES))
    def test_matches_np_unique(self, case):
        coords = np.array(SITE_GROUP_CASES[case])
        sites, member_site, order = _site_groups(coords[:, 0], coords[:, 1])
        want, inverse = np.unique(coords, axis=0, return_inverse=True)
        # Same sites up to the sign of zero (== ignores it), same
        # grouping of the points.
        assert sites.shape == want.shape and (sites == want).all()
        assert np.array_equal(member_site, inverse.ravel())
        # The order lists the points by site, then by index.
        assert np.array_equal(
            order, np.lexsort((np.arange(len(coords)), member_site))
        )

    def test_signed_zero_and_duplicate_join_matches_brute(self):
        from repro.core.brute import brute_force_rcj

        coords = SITE_GROUP_CASES["signed_zeros"] + [
            (3.0, -0.0), (-0.0, 3.0), (3.0, 3.0), (1.5, 1.5), (1.5, 1.5),
        ]
        points_p = [Point(x, y, i) for i, (x, y) in enumerate(coords[0::2])]
        points_q = [Point(x, y, i) for i, (x, y) in enumerate(coords[1::2])]
        got = run_join(points_p, points_q, engine="array").pair_keys()
        assert got == {r.key() for r in brute_force_rcj(points_p, points_q)}


def _sat_pairs(cells_a, cells_b):
    """The batched SAT decision and the scalar oracle's, for every
    pair of ``cells_a`` x ``cells_b`` (row-major)."""
    ia = np.repeat(np.arange(len(cells_a)), len(cells_b))
    ib = np.tile(np.arange(len(cells_b)), len(cells_a))
    got = cells_intersect(pack_cells(cells_a), ia, pack_cells(cells_b), ib)
    want = [
        convex_polygons_intersect(cells_a[i], cells_b[j])
        for i, j in zip(ia.tolist(), ib.tolist())
    ]
    return got.tolist(), want


def _random_convex(rng, count, radius=4.0):
    """A CCW convex polygon: ``count`` sorted angles on a circle."""
    cx, cy = rng.uniform(-5, 5), rng.uniform(-5, 5)
    r = rng.uniform(0.05, radius)
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(count))
    return [(cx + r * math.cos(a), cy + r * math.sin(a)) for a in angles]


def _lattice_cells():
    """Voronoi cells of a jittered lattice: neighbours share an edge
    (up to rounding) and diagonal ones touch at a Voronoi vertex."""
    from repro.joins.common_influence import voronoi_cells

    points = [
        Point(i + 1e-3 * ((i * 7 + j * 3) % 5), j, i * 5 + j)
        for i in range(5)
        for j in range(5)
    ]
    exact = [Point(float(i), float(j), 100 + i * 5 + j)
             for i in range(4) for j in range(4)]
    return voronoi_cells(points) + voronoi_cells(exact)


def _scaled(cells, scale, shift):
    return [[(x * scale + shift, y * scale + shift) for x, y in c] for c in cells]


class TestCellsIntersect:
    def test_random_convex_polygons(self):
        rng = random.Random(5)
        cells = [_random_convex(rng, rng.choice((3, 4, 5, 8, 13)))
                 for _ in range(120)]
        got, want = _sat_pairs(cells, cells[:60])
        assert got == want
        assert 0 < sum(want) < len(want)

    def test_shared_edges_and_corner_contacts(self):
        from repro.geometry.polygon import box_polygon

        boxes = [
            box_polygon(0, 0, 1, 1),
            box_polygon(1, 0, 2, 1),  # shares an edge
            box_polygon(1, 1, 2, 2),  # touches at one corner
            box_polygon(1 + 1e-10, 1 + 1e-10, 2, 2),  # within the slack
            box_polygon(1 + 1e-8, 0, 2, 1),  # just apart
        ]
        got, want = _sat_pairs(boxes, boxes)
        assert got == want
        assert want[:5] == [True, True, True, True, False]
        cells = _lattice_cells()
        got, want = _sat_pairs(cells, cells)
        assert got == want

    def test_gap_of_exactly_the_slack_still_touches(self):
        # min_b == max_a + tol: the test is strict, so the pair joins.
        from repro.geometry.polygon import box_polygon

        left, right = box_polygon(-1, 0, 0, 1), box_polygon(1e-9, 0, 1, 1)
        got, want = _sat_pairs([left, right], [left, right])
        assert got == want == [True, True, True, True]

    def test_edge_norms_match_math_hypot(self):
        # Long edges whose np.hypot norm differs from math.hypot's in
        # the last ulp, each with a point near its middle whose scalar
        # decision flips under np.hypot.
        cases = [
            ([(0.0, 0.0), (4829558.0, 8397223.0), (-8397.223, 4829.558)],
             (1787481.1080675693, 3107919.497546249), False),
            ([(0.0, 0.0), (3318187.0, 6303658.0), (-6303.658, 3318.187)],
             (2612742.3909582584, 4963504.008274141), False),
            ([(0.0, 0.0), (6614402.0, 3679538.0), (-3679.538, 6614.402)],
             (4350591.383836745, 2420198.5786923566), True),
        ]
        for tri, point, joins in cases:
            got, want = _sat_pairs([tri], [[point]])
            assert got == want == [joins]

    def test_repeated_vertices_give_zero_length_edges(self):
        rng = random.Random(8)
        cells = []
        for _ in range(40):
            poly = _random_convex(rng, rng.choice((3, 4, 6)))
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(poly))
                poly.insert(i, poly[i])
            cells.append(poly)
        cells.append([(0.0, 0.0)] * 4)  # a cell collapsed to a point
        got, want = _sat_pairs(cells, cells)
        assert got == want

    def test_small_and_empty_cells(self):
        cells = [
            [],
            [(0.5, 0.5)],
            [(3.0, 3.0)],
            [(0.0, 0.0), (1.0, 1.0)],
            [(0.0, 1.0), (1.0, 0.0)],
            [(2.0, 0.0), (2.0, 5.0)],
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
            [],
        ]
        got, want = _sat_pairs(cells, cells)
        assert got == want
        assert not any(got[:len(cells)])  # the empty cell meets nothing
        assert got[len(cells) + 6]  # a point inside the square

    @pytest.mark.parametrize("scale, shift", [(1e-6, 0.0), (1e-6, 1e9), (1e9, 0.0), (1.0, 1e9)])
    def test_extreme_scales(self, scale, shift):
        rng = random.Random(13)
        cells = _lattice_cells() + [
            _random_convex(rng, rng.choice((3, 5, 9))) for _ in range(30)
        ]
        cells = _scaled(cells, scale, shift)
        got, want = _sat_pairs(cells, cells)
        assert got == want

    def test_no_pairs(self):
        pack = pack_cells([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]])
        none = np.empty(0, np.int64)
        assert cells_intersect(pack, none, pack, none).shape == (0,)
        empty = pack_cells([])
        assert empty.count.size == 0 and empty.boxes().shape == (0, 4)

    def test_wide_cell_in_bounded_memory(self):
        # The cell of a ring's centre has as many vertices as the ring
        # has points.  Padding every row to its 600 columns, or one
        # (pair, 600, 600) temporary, takes ~3 MB apiece.
        rng = random.Random(2)
        wide = [
            (math.cos(2.0 * math.pi * i / 600), math.sin(2.0 * math.pi * i / 600))
            for i in range(600)
        ]
        cells = [wide] + [_random_convex(rng, 5, radius=0.3) for _ in range(20)]
        tracemalloc.start()
        try:
            pack = pack_cells(cells)
            ia = np.repeat(np.arange(len(cells)), len(cells))
            ib = np.tile(np.arange(len(cells)), len(cells))
            got = cells_intersect(pack, ia, pack, ib)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert got.tolist() == _sat_pairs(cells, cells)[1]

    def test_bounded_working_set(self):
        # 60,000 pairs of 12-gons: unchunked, one (pairs, edges,
        # vertices) temporary alone would take ~70 MB.
        rng = random.Random(3)
        cells = [_random_convex(rng, 12) for _ in range(300)]
        pack = pack_cells(cells)
        ia = np.repeat(np.arange(300), 200)
        ib = np.tile(np.arange(200), 300)
        tracemalloc.start()
        try:
            cells_intersect(pack, ia, pack, ib)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
