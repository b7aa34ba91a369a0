"""The self-RCJ: both join inputs are the same pointset.

The paper's postboxes application is the self-join: "both sets P and Q
contain locations of all buildings".  A point never pairs with itself,
and since the predicate is symmetric each unordered pair is reported
once (with ``p.oid < q.oid``).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.pairs import RCJPair
from repro.engine.planner import AlgorithmName, run_join
from repro.geometry.point import Point

#: The algorithms of :func:`self_rcj`: every one :func:`run_join` runs.
SelfAlgorithm = AlgorithmName


def _dedupe_symmetric(pairs: Sequence[RCJPair]) -> list[RCJPair]:
    """Keep one representative per unordered pair, ordered by oid."""
    out: dict[tuple[int, int], RCJPair] = {}
    for pair in pairs:
        a, b = pair.p.oid, pair.q.oid
        key = (a, b) if a <= b else (b, a)
        if key not in out:
            if a <= b:
                out[key] = pair
            else:
                out[key] = RCJPair(pair.q, pair.p, pair.circle)
    return list(out.values())


def self_rcj(
    points: Sequence[Point],
    algorithm: SelfAlgorithm = "obj",
    workers: int | None = None,
) -> list[RCJPair]:
    """Compute the self-RCJ of a pointset.

    Parameters
    ----------
    points:
        The dataset; ``oid`` values must be unique (they identify the
        endpoints of each reported pair).
    algorithm:
        Any RCJ algorithm of :func:`repro.engine.planner.run_join`
        (:data:`~repro.engine.planner.ALGORITHM_NAMES`): ``"inj"``,
        ``"bij"``, ``"obj"`` (R-tree based), ``"brute"``, ``"gabriel"``,
        ``"array"`` (main memory), ``"array-parallel"`` (the array
        engine in-process: the RCJ does not shard) or ``"auto"``
        (cost-based planner).
    workers:
        Worker budget of ``"auto"`` planning (``None`` = all cores).

    Returns
    -------
    Unordered result pairs, one per pair, with ``p.oid < q.oid``.
    """
    points = list(points)
    oids = {p.oid for p in points}
    if len(oids) != len(points):
        raise ValueError("self_rcj requires unique oids")
    report = run_join(
        points, points, algorithm=algorithm, workers=workers,
        exclude_same_oid=True,
    )
    return _dedupe_symmetric(report.pairs)
