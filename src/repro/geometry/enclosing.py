"""Smallest enclosing circles.

The RCJ constraint is expressed through the smallest circle enclosing a
*pair* of points: the circle whose diameter is the segment between them.
For completeness (and for applications that aggregate more than two
facilities) a randomised Welzl solver for arbitrary pointsets is included.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.geometry.circle import Circle
from repro.geometry.point import Point


def enclosing_circle(p: Point, q: Point) -> Circle:
    """Smallest circle enclosing two points.

    Its centre is the midpoint of ``pq`` — the *fair middleman location*
    — and its radius half the distance between them.
    """
    cx = (p.x + q.x) / 2.0
    cy = (p.y + q.y) / 2.0
    r = math.hypot(p.x - q.x, p.y - q.y) / 2.0
    return Circle(cx, cy, r)


def _circle_two(a: Point, b: Point) -> Circle:
    return enclosing_circle(a, b)


def _circle_three(a: Point, b: Point, c: Point) -> Circle | None:
    """Circumscribed circle of three points; None when collinear.

    Computed relative to ``a`` so that a small circle far from the
    origin keeps its precision."""
    bx, by = b.x - a.x, b.y - a.y
    cx, cy = c.x - a.x, c.y - a.y
    d = 2.0 * (bx * cy - by * cx)
    if d == 0.0:
        return None
    b_sq = bx * bx + by * by
    c_sq = cx * cx + cy * cy
    ux = (cy * b_sq - by * c_sq) / d
    uy = (bx * c_sq - cx * b_sq) / d
    return Circle(a.x + ux, a.y + uy, math.hypot(ux, uy))


#: Coverage slack in distance units, relative to the circle's coordinate
#: magnitude: it absorbs the rounding of the circle's construction
#: without swallowing a distinct point however close it lies.
_COVER_SLACK = 1e-12


def _covers(circle: Circle, p: Point) -> bool:
    slack = _COVER_SLACK * (abs(circle.cx) + abs(circle.cy) + circle.r)
    return math.hypot(p.x - circle.cx, p.y - circle.cy) <= circle.r + slack


def welzl_circle(points: Sequence[Point], seed: int = 0) -> Circle:
    """Smallest enclosing circle of a non-empty pointset (Welzl).

    Iterative move-to-front formulation with a seeded shuffle; expected
    linear time.  Used by aggregate-facility applications and as a test
    oracle for :func:`enclosing_circle`.
    """
    if not points:
        raise ValueError("cannot enclose an empty pointset")
    pts = list(points)
    random.Random(seed).shuffle(pts)

    circle = Circle(pts[0].x, pts[0].y, 0.0)
    for i, p in enumerate(pts):
        if _covers(circle, p):
            continue
        circle = Circle(p.x, p.y, 0.0)
        for j in range(i):
            a = pts[j]
            if _covers(circle, a):
                continue
            circle = _circle_two(p, a)
            for k in range(j):
                b = pts[k]
                if _covers(circle, b):
                    continue
                three = _circle_three(p, a, b)
                if three is None:
                    # Collinear triple: the two extreme points define it.
                    three = max(
                        (_circle_two(p, a), _circle_two(p, b), _circle_two(a, b)),
                        key=lambda c: c.r,
                    )
                circle = three
    return circle
