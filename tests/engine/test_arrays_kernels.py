"""Unit tests for the engine's columnar representation and kernels."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.datasets.fixtures import uniform_pair
from repro.engine import run_join, run_topk
from repro.engine.arrays import NonFiniteCoordinateError, PointArray
from repro.engine.kernels import (
    cone_cover,
    halfplane_prune_pairs,
    halfplane_prune_window,
    knn_candidate_blocks,
    verify_rings_batch,
)
from repro.geometry.point import Point


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

    def test_wrap_stays_unchecked(self):
        col = np.array([np.nan, 1.0])
        arr = PointArray._wrap(col, col, np.arange(2, dtype=np.int64))
        assert np.isnan(arr.x[0])

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


class TestHalfplaneKernels:
    def test_window_prune_matches_pointwise_halfplane(self):
        # One probe, three neighbours: n1 at (1, 0) prunes n2 at (3, 0)
        # (n2 is behind n1's Ψ− line) but not n3 at (0, 2).
        qx = np.array([0.0])
        qy = np.array([0.0])
        nx = np.array([[1.0, 3.0, 0.0]])
        ny = np.array([[0.0, 0.0, 2.0]])
        pruned = halfplane_prune_window(qx, qy, nx, ny)
        assert pruned.tolist() == [[False, True, False]]

    def test_coincident_neighbours_never_prune(self):
        qx = np.array([0.0])
        qy = np.array([0.0])
        nx = np.array([[0.0, 2.0, 2.0]])  # first neighbour == probe
        ny = np.array([[0.0, 0.0, 0.0]])  # two coincident candidates
        pruned = halfplane_prune_window(qx, qy, nx, ny)
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


class TestConeCover:
    def test_surrounded_probe_is_covered(self):
        # Eight close neighbours all around, window radius much larger.
        angles = np.linspace(0.0, 2 * np.pi, 9)[:-1]
        nx = np.cos(angles)[None, :]
        ny = np.sin(angles)[None, :]
        ndist = np.ones((1, 8))
        ndist[0, -1] = 10.0  # pretend the window reaches far out
        covered = cone_cover(
            np.zeros(1), np.zeros(1), nx, ny, np.sort(ndist), 1e-12
        )
        assert covered.tolist() == [True]

    def test_one_sided_probe_is_not_covered(self):
        # All neighbours to the right: directions to the left are open.
        nx = np.array([[1.0, 1.2, 1.4, 2.0]])
        ny = np.array([[0.1, -0.1, 0.2, 0.0]])
        ndist = np.hypot(nx, ny)
        covered = cone_cover(np.zeros(1), np.zeros(1), nx, ny, ndist, 1e-12)
        assert covered.tolist() == [False]

    def test_coincident_neighbours_certify_nothing(self):
        nx = np.zeros((1, 4))
        ny = np.zeros((1, 4))
        ndist = np.zeros((1, 4))
        covered = cone_cover(np.zeros(1), np.zeros(1), nx, ny, ndist, 1e-12)
        assert covered.tolist() == [False]


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
