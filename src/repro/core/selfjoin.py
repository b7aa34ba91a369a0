"""The self-RCJ: both join inputs are the same pointset.

The paper's postboxes application is the self-join: "both sets P and Q
contain locations of all buildings".  A point never pairs with itself,
and since the predicate is symmetric each unordered pair is reported
once (with ``p.oid < q.oid``).
"""

from __future__ import annotations

from typing import Callable, Literal, Sequence

from repro.core.bij import bij
from repro.core.brute import brute_force_rcj
from repro.core.gabriel import gabriel_rcj
from repro.core.inj import inj
from repro.core.pairs import RCJPair
from repro.geometry.point import Point
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree

SelfAlgorithm = Literal[
    "inj", "bij", "obj", "brute", "gabriel", "array", "array-parallel", "auto"
]


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
    tree: RTree | None = None,
    workers: int | None = None,
) -> list[RCJPair]:
    """Compute the self-RCJ of a pointset.

    Parameters
    ----------
    points:
        The dataset; ``oid`` values must be unique (they identify the
        endpoints of each reported pair).
    algorithm:
        One of ``"inj"``, ``"bij"``, ``"obj"`` (R-tree based),
        ``"brute"``, ``"gabriel"``, ``"array"`` (main memory),
        ``"array-parallel"`` (the array engine in-process: the RCJ does
        not shard) or ``"auto"`` (cost-based planner).
    tree:
        Optional pre-built index over ``points``; built with STR bulk
        loading when omitted (only used by the R-tree algorithms).
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

    if algorithm == "brute":
        return _dedupe_symmetric(
            brute_force_rcj(points, points, exclude_same_oid=True)
        )
    if algorithm == "gabriel":
        return _dedupe_symmetric(
            gabriel_rcj(points, points, exclude_same_oid=True)
        )
    if algorithm in ("array", "array-parallel", "auto"):
        # Imported lazily to keep the core layer import-light; the
        # engine subsystem pulls in numpy/scipy machinery.
        from repro.engine.planner import run_join

        report = run_join(
            points,
            points,
            algorithm=algorithm,
            workers=workers,
            exclude_same_oid=True,
        )
        return _dedupe_symmetric(report.pairs)

    if tree is None:
        tree = bulk_load(points, name="T_self")
    runner: Callable
    if algorithm == "inj":
        runner = lambda: inj(tree, tree, exclude_same_oid=True)  # noqa: E731
    elif algorithm == "bij":
        runner = lambda: bij(tree, tree, exclude_same_oid=True)  # noqa: E731
    elif algorithm == "obj":
        runner = lambda: bij(  # noqa: E731
            tree, tree, symmetric=True, exclude_same_oid=True
        )
    else:
        raise ValueError(f"unknown self-join algorithm {algorithm!r}")
    return _dedupe_symmetric(runner().pairs)
