"""Differential fuzz suite for the dynamic RCJ.

Every drawn case (:func:`tests.fuzz.strategies.dynamic_cases`) starts
both dynamic backends on the same edge-heavy population and replays
the same ``apply_batch`` interleaving of deletes, inserts and moves.
After every batch each backend's pairs must equal a from-scratch
``run_join(engine="array")`` of the live population; a malformed
batch must raise and leave ``pairs`` and ``maintenance_stats()``
untouched.  Tier-1 runs the default example budget; CI also runs a
deep profile (``--hypothesis-profile=fuzz-deep``).  Shrunk failures
are committed below as named regression cases.
"""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.dynamic import DynamicRCJ
from repro.engine import run_join
from repro.engine.streaming import DynamicArrayRCJ
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from tests.fuzz.strategies import dynamic_cases


def _state(dyn):
    """Everything a rejected batch must leave as it was."""
    pairs = [
        (pair.key(), pair.p.x, pair.p.y, pair.q.x, pair.q.y)
        for pair in dyn.pairs
    ]
    stats = dyn.maintenance_stats() if hasattr(dyn, "maintenance_stats") else None
    return pairs, stats


def _assert_backends_track(coords_p, coords_q, bounds, batches):
    points_p = [Point(x, y, i) for i, (x, y) in enumerate(coords_p)]
    points_q = [Point(x, y, i) for i, (x, y) in enumerate(coords_q)]
    live = {
        "P": {p.oid: p for p in points_p},
        "Q": {q.oid: q for q in points_q},
    }
    backends = [
        cls(points_p, points_q, bounds=Rect(*bounds))
        for cls in (DynamicArrayRCJ, DynamicRCJ)
    ]
    for step, (inserts, deletes, valid) in enumerate(batches):
        ins = [(Point(x, y, oid), side) for x, y, oid, side in inserts]
        dels = [(Point(x, y, oid), side) for x, y, oid, side in deletes]
        if not valid:
            for dyn in backends:
                before = _state(dyn)
                with pytest.raises((KeyError, ValueError)):
                    dyn.apply_batch(ins, dels)
                assert _state(dyn) == before, f"batch {step} mutated {dyn!r}"
            continue
        for point, side in dels:
            del live[side][point.oid]
        for point, side in ins:
            live[side][point.oid] = point
        want = run_join(
            list(live["P"].values()), list(live["Q"].values()), engine="array"
        ).pair_keys()
        for dyn in backends:
            dyn.apply_batch(ins, dels)
            assert dyn.pair_keys() == want, f"batch {step}: {dyn!r}"


@given(dynamic_cases())
def test_dynamic_backends_match_a_fresh_join(case):
    _assert_backends_track(*case)


#: Shrunk failures, each named after its input: ``(coords_p, coords_q,
#: bounds, batches)``.  The first lost a cocircular pair when the live
#: span's corner was the probe's farthest cell vertex and the partner
#: sat exactly on the horizon.  In the second, a Q point 5e-324 from
#: an inserted P point blocks a ring in real geometry but not under the
#: exact predicate (its products underflow to zero); its bisector cut
#: the probe's cell down to nothing (it also failed before the live
#: span).  In the third the backends were right and the from-scratch
#: array join missed a pair (see the bulk fuzz's
#: ``near_coincident_pair_above_a_far_base``).
REGRESSIONS = {
    "lattice_insert_on_the_span_corner": (
        [(1666.6666666666667, 1666.6666666666667),
         (5000.0, 1666.6666666666667),
         (8333.333333333334, 1666.6666666666667),
         (3333.3333333333335, 3333.3333333333335),
         (6666.666666666667, 3333.3333333333335),
         (1666.6666666666667, 5000.0),
         (5000.0, 5000.0),
         (8333.333333333334, 5000.0),
         (3333.3333333333335, 6666.666666666667),
         (6666.666666666667, 6666.666666666667),
         (1666.6666666666667, 8333.333333333334),
         (5000.0, 8333.333333333334),
         (8333.333333333334, 8333.333333333334)],
        [(3333.3333333333335, 1666.6666666666667),
         (6666.666666666667, 1666.6666666666667),
         (1666.6666666666667, 3333.3333333333335),
         (5000.0, 3333.3333333333335),
         (8333.333333333334, 3333.3333333333335),
         (3333.3333333333335, 5000.0),
         (6666.666666666667, 5000.0),
         (1666.6666666666667, 6666.666666666667),
         (5000.0, 6666.666666666667),
         (8333.333333333334, 6666.666666666667),
         (3333.3333333333335, 8333.333333333334),
         (6666.666666666667, 8333.333333333334)],
        (1666.6666666666667, 1666.6666666666667,
         8333.333333333334, 8333.333333333334),
        [([(1666.6666666666667, 1666.6666666666667, 12, "Q")], [], True)],
    ),
    "insert_next_to_a_denormal_neighbour": (
        [(0.5859597595778379, 1.0), (0.5750318036818294, 0.28489810644166597),
         (0.0, 1.0), (0.0, 0.8141140443124378),
         (0.5940596293891904, 0.21888933948442513),
         (0.7096703031008114, 0.7550920726072824), (0.0, 1.0),
         (0.2377890027572943, 0.0545394517290847), (0.6965523473331182, 0.0)],
        [(0.6371969938446724, 0.0), (1.0, 0.7265646478521298),
         (0.41375068589776004, 1.0), (0.8480214653740884, 0.18352705102710298),
         (0.7062180163449425, 1.0), (1.0, 1.0), (0.5411136653636394, 1.0),
         (0.8914478455928128, 1.0), (1.0, 0.9977923478613315)],
        (0.0, 0.0, 10000.0, 10000.0),
        [([(5e-324, 1.0, 9, "Q")],
          [(0.6371969938446724, 0.0, 0, "Q"), (1.0, 0.7265646478521298, 1, "Q")],
          True),
         ([(0.0, 1.0, 9, "P")], [], True)],
    ),
    "moves_onto_a_near_flat_chain": (
        [(384.61538461538464, 5000.000000000932),
         (1923.0769230769233, 5000.000000000351),
         (3461.538461538462, 4999.99999999939),
         (5000.0, 5000.0000000001855),
         (6538.461538461539, 5000.0000000009395),
         (8076.923076923077, 5000.000000000589),
         (9615.384615384615, 4999.999999999058)],
        [(1153.8461538461538, 5000.000000000084),
         (2692.3076923076924, 4999.999999999892),
         (4230.769230769231, 4999.999999999765),
         (5769.2307692307695, 4999.9999999991105),
         (7307.6923076923085, 4999.999999999175),
         (8846.153846153848, 5000.00000000005)],
        (0.0, 0.0, 1.0, 1.0),
        [([(384.61538461538464, 5000.000000000932, 0, "P"),
           (1923.0769230769233, 5000.000000000351, 1, "P"),
           (0.0, 0.0, 7, "P"),
           (384.61538461538464, 5000.000000000351, 8, "P")],
          [(384.61538461538464, 5000.000000000932, 0, "P"),
           (1923.0769230769233, 5000.000000000351, 1, "P"),
           (1153.8461538461538, 5000.000000000084, 0, "Q"),
           (2692.3076923076924, 4999.999999999892, 1, "Q")],
          True),
         ([(4230.769230769231, 4999.999999999765, 2, "Q"),
           (0.0, 0.0, 6, "Q"),
           (1.0, 0.0, 7, "Q")],
          [(1923.0769230769233, 5000.000000000351, 1, "P"),
           (4230.769230769231, 4999.999999999765, 2, "Q")],
          True),
         ([], [(3461.538461538462, 4999.99999999939, 2, "P")], True)],
    ),
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_regression_case(name):
    _assert_backends_track(*REGRESSIONS[name])
