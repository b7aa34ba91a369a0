"""Differential fuzz suite for the bulk RCJ.

Every drawn input (:func:`tests.fuzz.strategies.bulk_rcj_cases`) must
give the same pair set from the array engine (the Delaunay-first
pipeline), the Gabriel comparator and the brute-force oracle.  On the
same inputs the candidate stage's sort-based pieces must agree with
the ``np.unique`` constructions they replaced: the site dedupe
(grouping, and sites up to the sign of zero) and the triangulation's
edges read off its neighbour table (each edge once).  Row by row, each
candidate the local Gabriel lemma settles must carry the verdict ring
verification over the whole union gives it.  The array top-k must be
a prefix of the full join in canonical ascending-diameter order, for
several ``k``.  Tier-1
runs the suite's default example budget; CI also runs a deep profile
(``--hypothesis-profile=fuzz-deep``).  Shrunk failures are committed
below as named regression cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from repro.core.brute import brute_force_rcj
from repro.core.gabriel import checked_delaunay, gabriel_rcj
from repro.datasets.fixtures import clustered_pair
from repro.engine import run_join, run_topk
from repro.engine.kernels import _site_groups
from repro.engine.streaming import pair_order_key
from repro.geometry.point import Point
from tests.core.test_gabriel import assert_edges_read_once
from tests.engine.test_arrays_kernels import settled_row_errors
from tests.fuzz.strategies import bulk_rcj_cases


def _points(coords) -> list[Point]:
    return [Point(x, y, i) for i, (x, y) in enumerate(coords)]


def _assert_engines_agree(coords_p, coords_q, exclude_same_oid):
    points_p, points_q = _points(coords_p), _points(coords_q)
    want = sorted(
        pair.key()
        for pair in brute_force_rcj(points_p, points_q, exclude_same_oid)
    )
    array = run_join(
        points_p, points_q, engine="array", exclude_same_oid=exclude_same_oid
    )
    assert sorted(pair.key() for pair in array.pairs) == want, "array != brute"
    gabriel = sorted(
        pair.key()
        for pair in gabriel_rcj(points_p, points_q, exclude_same_oid)
    )
    assert gabriel == want, "gabriel != brute"


@given(bulk_rcj_cases())
def test_array_gabriel_and_brute_agree(case):
    _assert_engines_agree(*case)


@given(bulk_rcj_cases())
def test_sites_and_edges_match_the_np_unique_constructions(case):
    coords_p, coords_q, _exclude = case
    coords = np.array(coords_p + coords_q, dtype=np.float64).reshape(-1, 2)
    sites, member_site, _order = _site_groups(coords[:, 0], coords[:, 1])
    want, inverse = np.unique(coords, axis=0, return_inverse=True)
    assert sites.shape == want.shape and (sites == want).all()
    assert np.array_equal(member_site, inverse.ravel())
    tri = checked_delaunay(sites)
    if tri is not None:
        assert_edges_read_once(tri)


@given(bulk_rcj_cases())
def test_settled_rows_match_ring_verification(case):
    coords_p, coords_q, _exclude = case
    wrong, _settled = settled_row_errors(coords_p, coords_q)
    assert wrong == 0


@given(bulk_rcj_cases())
def test_topk_is_a_prefix_of_the_sorted_join(case):
    coords_p, coords_q, exclude_same_oid = case
    points_p, points_q = _points(coords_p), _points(coords_q)
    full = sorted(
        map(pair_order_key, brute_force_rcj(points_p, points_q, exclude_same_oid))
    )
    for k in sorted({1, 2, 5, len(full), len(full) + 1} - {0}):
        report = run_topk(
            points_p, points_q, k, engine="array",
            exclude_same_oid=exclude_same_oid,
        )
        assert [pair_order_key(pair) for pair in report.pairs] == full[:k], k


#: Shrunk failures, each named after its input: ``(coords_p, coords_q,
#: exclude_same_oid)``.  The first four broke the Gabriel comparator
#: before Qhull saw centred coordinates.  The rest broke a
#: Delaunay-first array engine (and the comparator): one ignored the
#: sites Qhull drops; two computed circumcircles in absolute centred
#: coordinates, which lost the tie of a square cell far from the
#: centroid; one held cocircular ties to a fixed tolerance, finer than
#: Qhull resolves a ring 1000 ring widths from a far site.  The last
#: came from the dynamic fuzz: two P sites 6e-10 apart on a near-flat
#: chain over a far base, where Qhull's flip is below its resolution
#: and the neighbouring circle (through the close pair) shows no tie.
#: ``cocircular_ring_missing_a_site`` has frame simplices whose vertex
#: sums, taken naively, name a far vertex past the points array.
REGRESSIONS = {
    "lattice_square_at_minus_1e9": (
        [(3333.3333333333335, -999996666.6666666),
         (3333.3333333333335, -999993333.3333334)],
        [(6666.666666666667, -999996666.6666666),
         (6666.666666666667, -999993333.3333334)],
        False,
    ),
    "lattice_square_at_plus_1e9": (
        [(1000003333.3333334, 3333.3333333333335),
         (1000003333.3333334, 6666.666666666667)],
        [(1000006666.6666666, 3333.3333333333335),
         (1000006666.6666666, 6666.666666666667)],
        False,
    ),
    "cocircular_hexagon_at_minus_1e9": (
        [(9000.0, -999995000.0), (3000.000000000001, -999991535.8983848),
         (2999.999999999998, -999998464.1016152)],
        [(7000.0, -999991535.8983848), (1000.0, -999995000.0),
         (7000.0, -999998464.1016152)],
        False,
    ),
    "hexagon_vertex_one_ulp_away": (
        [(9000.0, -999995000.0), (2999.999999999998, -999998464.1016152)],
        [(3000.000000000001, -999991535.8983848), (9000.0, -999994999.9999999)],
        False,
    ),
    "dropped_site_next_to_the_origin": (
        [(0.0, 0.0)],
        [(0.0, 1.0), (0.0, 9.507532953056856e-128), (1.0, 0.0)],
        False,
    ),
    "unit_square_next_to_a_far_site": (
        [(0.0, 0.0), (0.0, 1.0), (2e5, 0.0)],
        [(1.0, 1.0), (1.0, 0.0), (2e5 + 1.0, 0.0)],
        False,
    ),
    "lattice_square_next_to_a_far_site": (
        [(3333.3333333333335, 3333.3333333333335),
         (3333.3333333333335, 6666.666666666667),
         (333336666.6666667, 3333.3333333333335)],
        [(6666.666666666667, 3333.3333333333335),
         (6666.666666666667, 6666.666666666667)],
        False,
    ),
    "cocircular_octagon_next_to_a_far_site": (
        [(-999999.9217157287, -999999999.9217157),
         (-1000981.4829252411, -999999808.4503525),
         (-999999.91, -999999999.95),
         (-999999.9782842712, -999999999.9782842),
         (-999999.9782842712, -999999999.9217157)],
        [(-999999.95, -999999999.91),
         (-999999.9217157287, -999999999.9782842),
         (-999999.95, -999999999.99),
         (-999999.99, -999999999.95)],
        False,
    ),
    "near_coincident_pair_above_a_far_base": (
        [(9615.384615384615, 4999.999999999058),
         (384.61538461538464, 5000.000000000932),
         (384.61538461538464, 5000.000000000351)],
        [(4230.769230769231, 4999.999999999765), (0.0, 0.0), (1.0, 0.0)],
        False,
    ),
    "cocircular_ring_missing_a_site": (
        [(8064.177772475912, 7571.150438746157),
         (5694.592710667722, 8939.231012048833),
         (3000.000000000001, 8464.101615137755),
         (1241.229516856367, 6368.0805733026755),
         (1241.2295168563664, 3631.9194266973254),
         (2999.999999999998, 1535.8983848622465),
         (5694.59271066772, 1060.7689879511677),
         (8064.177772475911, 2428.849561253842),
         (1000.0, 1060.7689879511677),
         (9000.0, 1060.7689879511677)],
        [(8758.770483143633, 6368.080573302675),
         (7000.0, 8464.101615137755),
         (4305.407289332279, 8939.231012048833),
         (1935.8222275240882, 7571.150438746157),
         (1000.0, 5000.000000000001),
         (1935.8222275240864, 2428.8495612538445),
         (4305.407289332279, 1060.7689879511681),
         (6999.999999999997, 1535.8983848622438),
         (8758.770483143633, 3631.9194266973254)],
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_regression_case(name):
    _assert_engines_agree(*REGRESSIONS[name])


def test_clamped_clusters_on_the_box():
    # Regression fixture for the framed triangulation: 251 of these
    # 1,300 points are cluster tails clamped onto the box edges (long
    # collinear runs on the sites' hull), some piled onto a corner.
    points_p, points_q = clustered_pair(600, 700, seed=1, w=10)
    _assert_engines_agree(
        [(p.x, p.y) for p in points_p], [(q.x, q.y) for q in points_q], False
    )


def test_cocircular_ring_and_scatter_far_from_origin():
    # Regression: 3000 cocircular points plus 3000 scattered ones,
    # shifted by (+1e9, -1e9).  Uncentred, Qhull dropped two true pairs
    # (4,511 of 4,513) and the Gabriel comparator kept 1,755.  Too big
    # for the brute-force oracle, so the pair count is pinned.
    import random

    from repro.datasets.worstcase import cocircular, split_alternating

    scatter = [
        Point(random.Random(i).random() * 8000,
              random.Random(-i).random() * 8000, 0)
        for i in range(3000)
    ]
    points = [
        Point(p.x + 1e9, p.y - 1e9, i)
        for i, p in enumerate(cocircular(3000) + scatter)
    ]
    points_p, points_q = split_alternating(points)
    array = run_join(points_p, points_q, engine="array").pair_keys()
    assert len(array) == 4513
    assert {(2769, 562), (2769, 1312)} <= array
    assert {pair.key() for pair in gabriel_rcj(points_p, points_q)} == array
