"""Unit tests for the Delaunay/Gabriel-graph RCJ comparator."""

import random

import numpy as np
import pytest

import repro.core.gabriel as gabriel
import repro.engine.kernels as kernels
from repro.core.brute import brute_force_rcj
from repro.core.gabriel import (
    FRAME_VERTICES,
    checked_delaunay,
    circumcircles,
    framed_sites,
    gabriel_rcj,
    site_edges,
    triangle_circles,
    unresolved_sites,
)
from repro.datasets.synthetic import gaussian_clusters
from repro.datasets.worstcase import (
    cocircular,
    collinear,
    lattice,
    split_alternating,
)
from repro.engine import run_join
from repro.geometry.point import Point


def random_points(n, seed, start_oid=0, span=10000.0):
    rng = random.Random(seed)
    return [
        Point(rng.uniform(0, span), rng.uniform(0, span), start_oid + i)
        for i in range(n)
    ]


class TestExactnessOnRandomData:
    def test_matches_oracle_small(self):
        p = random_points(40, seed=1)
        q = random_points(35, seed=2, start_oid=100)
        assert {r.key() for r in gabriel_rcj(p, q)} == {
            r.key() for r in brute_force_rcj(p, q)
        }

    def test_matches_oracle_many_seeds(self):
        for seed in range(8):
            p = random_points(60, seed=seed * 2 + 1)
            q = random_points(50, seed=seed * 2 + 2, start_oid=1000)
            got = {r.key() for r in gabriel_rcj(p, q)}
            ref = {r.key() for r in brute_force_rcj(p, q)}
            assert got == ref, f"seed {seed}"

    def test_skewed_cardinalities(self):
        p = random_points(150, seed=5)
        q = random_points(10, seed=6, start_oid=500)
        assert {r.key() for r in gabriel_rcj(p, q)} == {
            r.key() for r in brute_force_rcj(p, q)
        }


class TestDegenerateInputs:
    def test_empty_sets(self):
        assert gabriel_rcj([], random_points(5, 1)) == []
        assert gabriel_rcj(random_points(5, 1), []) == []

    def test_single_pair(self):
        got = gabriel_rcj([Point(0, 0, 0)], [Point(5, 5, 1)])
        assert [r.key() for r in got] == [(0, 1)]

    def test_two_distinct_sites_untriangulated(self):
        # Fewer than 4 distinct coordinates: no triangulation, every
        # site is unresolved.
        p = [Point(0, 0, 0), Point(0, 0, 1)]
        q = [Point(5, 0, 2)]
        got = {r.key() for r in gabriel_rcj(p, q)}
        assert got == {(0, 2), (1, 2)}

    def test_all_collinear_falls_back(self):
        # Collinear sites make Qhull fail; the every-site-unresolved
        # route must produce the exact result.
        p = [Point(i, 0, i) for i in range(6)]
        q = [Point(i + 0.5, 0, 100 + i) for i in range(6)]
        got = {r.key() for r in gabriel_rcj(p, q)}
        ref = {r.key() for r in brute_force_rcj(p, q)}
        assert got == ref

    def test_coincident_cross_set_points(self):
        p = [Point(3, 3, 0), Point(8, 1, 1), Point(0, 9, 2), Point(9, 9, 3)]
        q = [Point(3, 3, 10), Point(5, 5, 11), Point(1, 1, 12), Point(7, 3, 13)]
        got = {r.key() for r in gabriel_rcj(p, q)}
        ref = {r.key() for r in brute_force_rcj(p, q)}
        assert got == ref
        assert (0, 10) in got  # the coincident pair (radius zero)

    def test_duplicate_heavy_input(self):
        rng = random.Random(3)
        coords = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(30)]
        p = [Point(x, y, i) for i, (x, y) in enumerate(coords[:15])]
        q = [Point(x, y, 100 + i) for i, (x, y) in enumerate(coords[15:])]
        got = {r.key() for r in gabriel_rcj(p, q)}
        ref = {r.key() for r in brute_force_rcj(p, q)}
        # Lattice data is degenerate: the comparator must stay sound.
        assert got <= ref

    def test_exclude_same_oid(self):
        pts = random_points(30, seed=9)
        got = {r.key() for r in gabriel_rcj(pts, pts, exclude_same_oid=True)}
        assert all(a != b for a, b in got)
        ref = {
            r.key() for r in brute_force_rcj(pts, pts, exclude_same_oid=True)
        }
        assert got == ref


class TestScaling:
    def test_larger_input_consistency_with_rtree_algorithms(self):
        from repro.core.bij import bij
        from repro.rtree.bulk import bulk_load

        p = random_points(2000, seed=11)
        q = random_points(2000, seed=12, start_oid=5000)
        tree_p = bulk_load(p)
        tree_q = bulk_load(q)
        got = {r.key() for r in gabriel_rcj(p, q)}
        ref = bij(tree_q, tree_p, symmetric=True).pair_keys()
        assert got == ref


class TestCocircularTies:
    """Regression: tie-Gabriel edges outside the triangulation.

    On a unit lattice each cell's four corners are cocircular and BOTH
    crossing diagonals are valid RCJ pairs (the other two corners tie
    exactly on the ring boundary), but a Delaunay triangulation keeps
    only one diagonal per cell.  gabriel_rcj must recover the other via
    cocircular-cluster candidates."""

    def test_unit_cell_both_diagonals(self):
        from repro.geometry.point import Point

        ps = [Point(0, 0, 0), Point(1, 1, 1)]
        qs = [Point(1, 0, 0), Point(0, 1, 1)]
        got = {r.key() for r in gabriel_rcj(ps, qs)}
        expected = {r.key() for r in brute_force_rcj(ps, qs)}
        assert got == expected
        # All four side pairs and both diagonal pairings qualify.
        assert got == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_lattice_matches_brute(self):
        from repro.datasets.worstcase import lattice, split_alternating

        ps, qs = split_alternating(lattice(81))
        got = {r.key() for r in gabriel_rcj(ps, qs)}
        expected = {r.key() for r in brute_force_rcj(ps, qs)}
        assert got == expected

    def test_twelve_cocircular_lattice_points(self):
        """Points on the radius-5 lattice circle: larger cocircular
        cluster, still exact (diametral disks here are non-empty, so no
        diameter pairs — but the cluster scan must not invent any)."""
        from repro.geometry.point import Point

        ring12 = [
            (5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
            (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3),
        ]
        pts = [Point(x + 10, y + 10, i) for i, (x, y) in enumerate(ring12)]
        ps = pts[0::2]
        qs = [Point(p.x, p.y, i) for i, p in enumerate(pts[1::2])]
        ps = [Point(p.x, p.y, i) for i, p in enumerate(ps)]
        got = {r.key() for r in gabriel_rcj(ps, qs)}
        expected = {r.key() for r in brute_force_rcj(ps, qs)}
        assert got == expected


class TestNearFlatInputs:
    @pytest.mark.parametrize("n", (20, 40, 60))
    @pytest.mark.parametrize("seed", range(10))
    def test_near_collinear_sets_match_oracle(self, n, seed):
        # Qhull accepts these sets but omits chain edges; the
        # comparator must refuse its triangulation.
        p, q = split_alternating(collinear(n, jitter=1e-10, seed=seed))
        assert {r.key() for r in gabriel_rcj(p, q)} == {
            r.key() for r in brute_force_rcj(p, q)
        }

    def test_triangulation_past_the_sites_is_refused(self, monkeypatch):
        # Qhull's point at infinity (its Qz option) once leaked into the
        # simplices of a degenerate input; a triangulation indexing past
        # the sites is refused.
        class LeakyDelaunay:
            def __init__(self, points):
                self.points = points
                self.simplices = np.array([[0, 1, len(points)]])

        monkeypatch.setattr(gabriel, "Delaunay", LeakyDelaunay)
        sites = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        assert checked_delaunay(sites) is None

    def test_refused_triangulation_never_runs_brute_force(self, monkeypatch):
        # A refused triangulation leaves every site unresolved and runs
        # the usual verify; the quadratic oracle, once the fallback,
        # had not finished n = 5000 after minutes.
        import repro.core.brute as brute

        def refuse(*args, **kwargs):
            raise AssertionError("gabriel_rcj fell back to brute force")

        monkeypatch.setattr(gabriel, "brute_force_rcj", refuse, raising=False)
        monkeypatch.setattr(brute, "brute_force_rcj", refuse)
        for n, jitter in ((400, 1e-10), (300, 0.0), (3, 0.0)):
            p, q = split_alternating(collinear(n, jitter=jitter, seed=3))
            assert checked_delaunay(
                np.array([(pt.x, pt.y) for pt in p + q])
            ) is None
            want = run_join(p, q, engine="array").pair_keys()
            assert {r.key() for r in gabriel_rcj(p, q)} == want


class TestCentredTriangulation:
    def test_qhull_triangulates_the_centred_sites(self):
        sites = np.array(
            [(1e9, -1e9), (1e9 + 1, -1e9), (1e9, -1e9 + 2), (1e9 + 3, -1e9 + 3)]
        )
        tri = checked_delaunay(sites)
        # The sites come first; the frame vertices follow them.
        assert np.array_equal(tri.points[:4], sites - sites.mean(axis=0))
        assert np.array_equal(framed_sites(tri), tri.points[:4])

    def test_unit_square_draw_far_from_origin(self):
        # Regression: ten points of the unit square shifted by 1e6 lost
        # two pairs (5 of 7): a fixed 1e-12 ball inflation is outrun by
        # midpoint rounding at that magnitude.
        rng = random.Random(4)
        points = [
            Point(rng.random() + 1e6, rng.random() + 1e6, i) for i in range(10)
        ]
        p, q = points[0::2], points[1::2]
        want = {r.key() for r in brute_force_rcj(p, q)}
        assert len(want) == 7
        assert {r.key() for r in gabriel_rcj(p, q)} == want

    def test_dropped_site_keeps_its_pairs(self):
        # Qhull leaves (0, 1e-127) out of every simplex (tri.coplanar);
        # it still pairs with (0, 0) and blocks (0, 0)-(0, 1).
        p = [Point(0.0, 0.0, 0)]
        q = [
            Point(0.0, 1.0, 1),
            Point(0.0, 9.507532953056856e-128, 2),
            Point(1.0, 0.0, 3),
        ]
        sites = np.array([(pt.x, pt.y) for pt in p + q])
        tri = checked_delaunay(sites)
        assert 2 not in set(tri.simplices.ravel().tolist())
        assert {r.key() for r in gabriel_rcj(p, q)} == {(0, 2), (0, 3)}

    def test_circumcircle_error_scales_with_the_cell(self):
        # A unit cell 2e5 from the origin: solved in absolute
        # coordinates its centre is off by ~1e-6, more than the 1e-9
        # on-circle tolerance; solved relative to a vertex it is exact
        # to the cell's rounding.
        points = np.array([(2e5, 0.0), (2e5, 1.0), (2e5 + 1.0, 1.0)])
        ux, uy, radius = circumcircles(points, np.array([[0, 1, 2]]))
        assert abs(ux[0] - (2e5 + 0.5)) <= 1e-10
        assert abs(uy[0] - 0.5) <= 1e-12
        assert abs(radius[0] - 0.5 ** 0.5) <= 1e-12

    def test_simplices_below_qhull_resolution_are_unresolved(self):
        # Three sites 1e-7 apart next to a unit square: Qhull's
        # in-circle resolution (QHULL_ROUND * E^2 / r) exceeds an eighth
        # of that triangle's radius, so its vertices take the exact
        # route; the square's sites do not.
        sites = np.array([
            (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
            (0.5, 0.5), (0.5 + 1e-7, 0.5), (0.5, 0.5 + 1e-7),
        ])
        tri = checked_delaunay(sites)
        circles = triangle_circles(tri)
        small = tri.simplices[circles.small]
        assert set(small.ravel().tolist()) == {4, 5, 6}
        unresolved = unresolved_sites(tri, circles.small)
        assert np.flatnonzero(unresolved).tolist() == [4, 5, 6]
        p = [Point(x, y, i) for i, (x, y) in enumerate(sites[0::2])]
        q = [Point(x, y, i) for i, (x, y) in enumerate(sites[1::2])]
        assert {r.key() for r in gabriel_rcj(p, q)} == {
            r.key() for r in brute_force_rcj(p, q)
        }


def _distinct_sites(points):
    return np.unique(np.array([(p.x, p.y) for p in points]), axis=0)


def _clamped_sites():
    # Three clusters about as wide as the box: most tails clamp onto
    # its edges (collinear runs on the hull) and past two edges onto
    # a corner (coincident piles, one site each).  325 distinct sites.
    return _distinct_sites(gaussian_clusters(400, w=3, seed=7, std=6000.0))


def _gabriel_edges(sites):
    """Every Gabriel edge of ``sites`` by the oracle's exact predicate."""
    x, y = sites[:, 0], sites[:, 1]
    edges = set()
    for i in range(len(sites)):
        # t[j, s] < 0: site s lies strictly inside the ring of (i, j).
        t = (x[None, :] - x[i]) * (x[None, :] - x[:, None]) + (
            y[None, :] - y[i]
        ) * (y[None, :] - y[:, None])
        free = np.flatnonzero(~(t < 0.0).any(axis=1))
        edges.update((i, int(j)) for j in free if j > i)
    return edges


class TestFramedTriangulation:
    def test_frame_encloses_the_sites_beyond_every_ring(self):
        sites = _clamped_sites()
        n = len(sites)
        tri = checked_delaunay(sites)
        frame = tri.points[n:]
        assert len(frame) == FRAME_VERTICES
        # The frame is the whole hull, so no site lies on it.
        assert tri.convex_hull.min() >= n
        centred = framed_sites(tri)
        lo, hi = centred.min(axis=0), centred.max(axis=0)
        h = 0.5 * np.hypot(*(hi - lo))
        assert (np.hypot(*(frame - 0.5 * (lo + hi)).T) > 2.0 * h).all()

    @pytest.mark.parametrize("family", ["clamped", "lattice", "small"])
    def test_frame_vertices_never_reach_the_outputs(self, family):
        sites = {
            "clamped": _clamped_sites,
            "lattice": lambda: _distinct_sites(lattice(36)),
            "small": lambda: np.array([
                (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
                (0.5, 0.5), (0.5 + 1e-7, 0.5), (0.5, 0.5 + 1e-7),
            ]),
        }[family]()
        n = len(sites)
        tri = checked_delaunay(sites)
        assert (tri.simplices >= n).any()
        circles = triangle_circles(tri)
        edges = site_edges(tri)
        assert len(edges) and edges.max() < n
        assert unresolved_sites(tri, circles.small).shape == (n,)
        clusters = gabriel._cocircular_cluster_pairs(tri, circles)
        _far, tied, _violated = kernels._neighbour_ties(tri, circles)
        vectorized = kernels._cocircular_site_pairs(tri, circles, tied)
        assert all(j < n for pair in clusters for j in pair)
        assert vectorized.size == 0 or vectorized.max() < n
        if family == "lattice":
            # Lattice cells are cocircular: the clusters are not empty.
            assert clusters and len(vectorized)

    def test_every_gabriel_edge_of_a_clamped_set_is_a_site_edge(self):
        sites = _clamped_sites()
        assert 250 <= len(sites) <= 350
        tri = checked_delaunay(sites)
        got = set(map(tuple, site_edges(tri).tolist()))
        want = _gabriel_edges(sites)
        assert want <= got


def unique_site_edges(tri):
    """The construction ``site_edges`` replaced: every simplex side,
    frame edges dropped, deduplicated with ``np.unique``."""
    n = len(framed_sites(tri))
    simp = tri.simplices
    edges = np.concatenate(
        (simp[:, (0, 1)], simp[:, (0, 2)], simp[:, (1, 2)])
    ).astype(np.int64)
    edges = edges[edges.max(axis=1) < n]
    edges.sort(axis=1)
    keys = np.unique(edges[:, 0] * np.int64(n) + edges[:, 1])
    return np.column_stack((keys // n, keys % n))


def assert_edges_read_once(tri):
    """``site_edges`` holds exactly the old construction's edges, each
    once as ``(low, high)``."""
    edges = site_edges(tri)
    assert edges.shape[1] == 2 and edges.dtype == np.int64
    assert (edges[:, 0] < edges[:, 1]).all()
    rows = list(map(tuple, edges.tolist()))
    assert len(set(rows)) == len(rows), "an edge was emitted twice"
    assert set(rows) == set(map(tuple, unique_site_edges(tri).tolist()))


def _coincident_heavy_sites():
    # Integer draws from a 6x6 grid collapse onto few sites, and sites
    # a few ulps (or 1e-127) off a grid point are left out of every
    # simplex by Qhull (tri.coplanar).
    rng = random.Random(3)
    coords = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(200)]
    coords += [(np.nextafter(2.0, 3.0), 2.0), (3.0, 1e-127), (4.0, 4.0 + 1e-15)]
    return _distinct_sites([Point(x, y, 0) for x, y in coords])


SITE_FAMILIES = {
    "uniform": lambda: _distinct_sites(random_points(500, seed=17)),
    "clamped": _clamped_sites,
    "lattice": lambda: _distinct_sites(lattice(100)),
    "small": lambda: np.array([
        (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
        (0.5, 0.5), (0.5 + 1e-7, 0.5), (0.5, 0.5 + 1e-7),
    ]),
    "cocircular": lambda: _distinct_sites(cocircular(64)),
    "cocircular_far_from_origin": lambda: _distinct_sites(
        [Point(p.x + 1e9, p.y - 1e9, 0) for p in cocircular(40) + lattice(25)]
    ),
    "coincident_heavy": _coincident_heavy_sites,
}


class TestSiteEdges:
    @pytest.mark.parametrize("family", sorted(SITE_FAMILIES))
    def test_each_edge_read_once_off_the_neighbours(self, family):
        tri = checked_delaunay(SITE_FAMILIES[family]())
        assert tri is not None
        assert_edges_read_once(tri)
