"""Differential fuzz suite for the sharded join families.

The ε-join and the kNN join are the families the thread pool shards
(:mod:`repro.parallel.pool`).  Over the bulk RCJ's adversarial inputs
(:func:`tests.fuzz.strategies.bulk_rcj_cases`: near-coincident sites,
far outliers, extreme scales and offsets, cross-side duplicates), the
pooled pipeline at one and two workers must give the same pair list,
in order, as the serial array pipeline and as the pointwise oracle.
``min_shard=2`` makes every input with four or more probes shard.
The k-closest-pairs join has no pooled route; its array pipeline must
give the pointwise R-tree join's pair list, in order, for ``k`` drawn
from {1, 2, 5, |P|·|Q|}: equal distances are common in these inputs
(lattices, duplicates, cross-side copies), and both routes break such
ties by ``(p.oid, q.oid)``.
Each side's oids are either its row numbers or drawn unique,
non-contiguous and in shuffled order (as low as ``-2**62``, as high as
``2**62``), so an order keyed by row instead of by oid shows.  ε is
drawn from the case's own pair distances, so the exact ``d <= ε``
boundary is always in play; kNN ``k`` is drawn from {1, 2, 5}, which
straddles the tie-escalation window on small sides.  Tier-1 runs the
default example budget; CI also runs the deep profile
(``--hypothesis-profile=fuzz-deep``).  The pooled runs'
``candidate_count``, summed over shards, must equal the serial one.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import run_join
from repro.geometry.point import Point
from tests.fuzz.strategies import bulk_rcj_cases


#: Drawn oids: unique, spread over most of the int64 range.
OIDS = st.integers(min_value=-(2**62), max_value=2**62)


def _points(data, coords) -> list[Point]:
    """One side's points: oids are the row numbers, or drawn."""
    if data.draw(st.booleans(), label="drawn oids"):
        oids = data.draw(
            st.lists(OIDS, min_size=len(coords), max_size=len(coords), unique=True)
        )
    else:
        oids = range(len(coords))
    return [Point(x, y, oid) for (x, y), oid in zip(coords, oids)]


def _keys(report) -> list[tuple[int, int]]:
    return [pair.key() for pair in report.pairs]


def _draw_family(data, family, coords_p, coords_q) -> dict:
    """The family's parameters: ε from the case's own pair distances
    (so some pair sits exactly on the boundary), kNN ``k`` from
    {1, 2, 5}."""
    if family == "knn":
        return {"family": "knn", "k": data.draw(st.sampled_from((1, 2, 5)))}
    distances = [
        math.sqrt((px - qx) ** 2 + (py - qy) ** 2)
        for px, py in coords_p
        for qx, qy in coords_q
    ]
    eps = data.draw(st.sampled_from(distances)) if distances else 1.0
    return {"family": "epsilon", "eps": eps}


def _pooled(points_p, points_q, workers, family):
    return run_join(
        points_p, points_q, engine="array-parallel", workers=workers,
        min_shard=2, **family,
    )


FAMILIES = pytest.mark.parametrize("family", ["epsilon", "knn"])


@FAMILIES
@given(case=bulk_rcj_cases(), data=st.data())
def test_routes_give_the_oracle_pair_list(family, case, data):
    coords_p, coords_q, _exclude = case
    args = _draw_family(data, family, coords_p, coords_q)
    points_p, points_q = _points(data, coords_p), _points(data, coords_q)
    want = _keys(run_join(points_p, points_q, engine="pointwise", **args))
    array = _keys(run_join(points_p, points_q, engine="array", **args))
    assert array == want, "array != pointwise"
    for workers in (1, 2):
        pooled = _pooled(points_p, points_q, workers, args)
        assert _keys(pooled) == want, f"array-parallel@{workers} != pointwise"


@FAMILIES
@given(case=bulk_rcj_cases(), data=st.data())
def test_pooled_candidate_count_matches_serial(family, case, data):
    coords_p, coords_q, _exclude = case
    args = _draw_family(data, family, coords_p, coords_q)
    points_p, points_q = _points(data, coords_p), _points(data, coords_q)
    serial = run_join(points_p, points_q, engine="array", **args)
    pooled = _pooled(points_p, points_q, 2, args)
    assert pooled.candidate_count == serial.candidate_count


@given(case=bulk_rcj_cases(), data=st.data())
def test_kcp_array_gives_the_oracle_pair_list(case, data):
    coords_p, coords_q, _exclude = case
    points_p, points_q = _points(data, coords_p), _points(data, coords_q)
    everything = max(len(points_p) * len(points_q), 1)
    k = data.draw(st.sampled_from((1, 2, 5, everything)))
    want = run_join(points_p, points_q, engine="pointwise", family="kcp", k=k)
    array = run_join(points_p, points_q, engine="array", family="kcp", k=k)
    assert _keys(array) == _keys(want)
