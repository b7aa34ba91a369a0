"""Unit tests for smallest enclosing circles."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.geometry.enclosing import enclosing_circle, welzl_circle
from repro.geometry.point import Point

coord = st.floats(-1000.0, 1000.0)


class TestPairCircle:
    def test_center_is_midpoint(self):
        c = enclosing_circle(Point(0, 0), Point(4, 0))
        assert (c.cx, c.cy) == (2.0, 0.0)
        assert c.r == 2.0

    def test_coincident_pair_gives_zero_radius(self):
        c = enclosing_circle(Point(3, 3), Point(3, 3, 1))
        assert c.r == 0.0
        assert (c.cx, c.cy) == (3.0, 3.0)

    @given(coord, coord, coord, coord)
    def test_endpoints_equidistant_from_center(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        c = enclosing_circle(a, b)
        da = math.hypot(a.x - c.cx, a.y - c.cy)
        db = math.hypot(b.x - c.cx, b.y - c.cy)
        assert math.isclose(da, db, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(da, c.r, rel_tol=1e-9, abs_tol=1e-9)

    @given(coord, coord, coord, coord)
    def test_symmetric_in_arguments(self, ax, ay, bx, by):
        c1 = enclosing_circle(Point(ax, ay), Point(bx, by))
        c2 = enclosing_circle(Point(bx, by), Point(ax, ay))
        assert c1 == c2

    def test_minimality_against_welzl(self):
        # The two-point circle is the smallest enclosing circle of the
        # pair, so Welzl on the same two points must agree.
        a, b = Point(1, 2), Point(7, -3)
        pair = enclosing_circle(a, b)
        general = welzl_circle([a, b])
        assert math.isclose(pair.r, general.r, rel_tol=1e-9)


class TestWelzl:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            welzl_circle([])

    def test_single_point(self):
        c = welzl_circle([Point(4, 5)])
        assert (c.cx, c.cy, c.r) == (4, 5, 0)

    def test_equilateral_triangle(self):
        pts = [Point(0, 0), Point(2, 0), Point(1, math.sqrt(3))]
        c = welzl_circle(pts)
        # Circumradius of an equilateral triangle with side 2.
        assert math.isclose(c.r, 2 / math.sqrt(3), rel_tol=1e-9)

    def test_collinear_points(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(5, 0)]
        c = welzl_circle(pts)
        assert math.isclose(c.r, 2.5, rel_tol=1e-9)
        assert math.isclose(c.cx, 2.5, rel_tol=1e-9)

    @given(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    @example(coords=[(0.0, 0.0), (0.0, 1e-05)])
    @example(coords=[(5.0, 5.0), (5.0, 5.00001)])
    @example(coords=[(999.000028, 999.000076), (999.000062, 999.000025),
                     (999.000091, 999.000098)])
    def test_all_points_covered(self, coords):
        pts = [Point(x, y) for x, y in coords]
        c = welzl_circle(pts)
        for p in pts:
            d = math.hypot(p.x - c.cx, p.y - c.cy)
            assert d <= c.r * (1 + 1e-7) + 1e-7

    @given(st.lists(st.tuples(coord, coord), min_size=2, max_size=15))
    def test_not_larger_than_diameter_of_farthest_pair_bound(self, coords):
        pts = [Point(x, y) for x, y in coords]
        c = welzl_circle(pts)
        # The SEC radius never exceeds the farthest-pair distance.
        diameter = max(
            math.hypot(a.x - b.x, a.y - b.y) for a in pts for b in pts
        )
        assert c.r <= diameter * (1 + 1e-7) + 1e-7

    def test_deterministic_given_seed(self):
        pts = [Point(i * 3 % 7, i * 5 % 11) for i in range(10)]
        assert welzl_circle(pts, seed=1) == welzl_circle(pts, seed=1)
