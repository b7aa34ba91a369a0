"""Differential fuzz suite for the common influence join (CIJ).

Every drawn case (:func:`tests.fuzz.strategies.cij_cases`) must give
the same pair keys from the columnar pipeline
(``run_join(family="cij", engine="array")``, whose batched SAT kernel
decides every candidate cell pair at once) and from the scalar oracle
:func:`repro.joins.common_influence.common_influence_join`, with the
default clipping box and with an explicit one.  Sides stay small:
duplicate sites send a side to the quadratic all-pairs cell path.
Tier-1 runs the default example budget; CI also runs a deep profile
(``--hypothesis-profile=fuzz-deep``).  Shrunk failures are committed
below as named regression cases.
"""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.engine import run_join
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.joins.common_influence import common_influence_join
from tests.fuzz.strategies import cij_cases


def _assert_array_matches_oracle(coords_p, coords_q, bounds):
    points_p = [Point(x, y, i) for i, (x, y) in enumerate(coords_p)]
    points_q = [Point(x, y, i) for i, (x, y) in enumerate(coords_q)]
    box = None if bounds is None else Rect(*bounds)
    want = sorted(
        (p.oid, q.oid)
        for p, q in common_influence_join(points_p, points_q, bounds=box)
    )
    report = run_join(
        points_p, points_q, family="cij", engine="array", bounds=box
    )
    assert sorted(pair.key() for pair in report.pairs) == want


@given(cij_cases())
def test_array_matches_scalar_oracle(case):
    _assert_array_matches_oracle(*case)


#: Named cases, each ``(coords_p, coords_q, bounds)``: cells that share
#: an edge or touch at one corner, exact duplicates (the all-pairs
#: cell path, repeated vertices), sites outside an explicit box (empty
#: cells) and the extreme scales.
REGRESSIONS = {
    "lattice_cells_share_edges_and_corners": (
        [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)],
        [(1.0, 0.0), (0.0, 1.0), (2.0, 1.0), (1.0, 2.0)],
        None,
    ),
    "exact_duplicates_on_both_sides": (
        [(0.0, 0.0), (0.0, 0.0), (3.0, 1.0), (1.0, 4.0), (5.0, 5.0),
         (2.0, 2.0)],
        [(0.0, 0.0), (3.0, 1.0), (3.0, 1.0), (4.0, 0.0), (1.0, 1.0),
         (6.0, 2.0)],
        None,
    ),
    "sites_outside_an_explicit_box": (
        [(0.5, 0.5), (5000.0, 5000.0), (9000.0, 100.0)],
        [(0.25, 0.75), (7000.0, 7000.0)],
        (0.0, 0.0, 1.0, 1.0),
    ),
    "box_of_the_first_side": (
        [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
        [(5.0, 5.0), (10.0, 10.0), (20.0, 20.0)],
        (0.0, 0.0, 10.0, 10.0),
    ),
    "micro_scale_far_from_the_origin": (
        [(1e9 + 1e-6 * i, 1e9 + 2e-6 * (i % 3)) for i in range(6)],
        [(1e9 + 1e-6 * i + 5e-7, 1e9 + 1e-6 * (i % 2)) for i in range(5)],
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_regression_case(name):
    _assert_array_matches_oracle(*REGRESSIONS[name])
