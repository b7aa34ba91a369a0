"""repro — Ring-constrained Join (RCJ).

A from-scratch reproduction of *"Ring-constrained Join: Deriving Fair
Middleman Locations from Pointsets via a Geometric Constraint"* (Yiu,
Karras, Mamoulis; EDBT 2008): the RCJ operator, the paper's R-tree
algorithms (INJ, BIJ, OBJ) on a simulated disk/buffer substrate, the
baseline spatial joins it compares against (including the common
influence join of its ref [19]), the evaluation harness that
regenerates every table and figure of the paper, and the paper's
future-work extensions — metric and road-network RCJ, analytical
cost/result-size models, and incremental RCJ maintenance under
updates (:class:`DynamicRCJ`).

Quickstart::

    from repro import ring_constrained_join, uniform

    restaurants = uniform(500, seed=1)
    complexes = uniform(400, seed=2, start_oid=500)
    pairs = ring_constrained_join(restaurants, complexes)
    for pair in pairs[:5]:
        print(pair.p.oid, pair.q.oid, pair.center, pair.radius)
"""

from __future__ import annotations

from typing import Sequence

from repro.core.bij import bij
from repro.core.brute import brute_force_rcj
from repro.core.gabriel import gabriel_rcj
from repro.core.inj import inj
from repro.engine import (
    DynamicArrayRCJ,
    NonFiniteCoordinateError,
    PointArray,
    make_dynamic,
    run_join,
    run_topk,
)
from repro.engine.planner import AlgorithmName
from repro.core.metric_rcj import metric_rcj
from repro.core.obj import obj
from repro.core.pairs import JoinReport, RCJPair
from repro.core.selfjoin import self_rcj
from repro.core.dynamic import DynamicBackend, DynamicRCJ
from repro.core.topk import incremental_rcj, top_k_rcj
from repro.datasets.real import join_combination, locales, populated_places, schools
from repro.datasets.synthetic import gaussian_clusters, uniform
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.joins.common_influence import common_influence_join
from repro.kdtree import build_kdtree
from repro.queries import (
    aggregate_nearest,
    bichromatic_reverse_nearest,
    reverse_nearest,
    skyline,
)
from repro.rtree.bulk import bulk_load, hilbert_bulk_load
from repro.rtree.tree import RTree
from repro.storage.persist import load_tree, save_tree
from repro.bench.runner import Workload, build_workload, run_algorithm

__version__ = "1.1.0"

#: The methods of :func:`ring_constrained_join`: every RCJ algorithm of
#: :func:`run_join`.
Method = AlgorithmName


def ring_constrained_join(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    method: Method = "obj",
    buffer_fraction: float = 0.01,
    workers: int | None = None,
) -> list[RCJPair]:
    """Compute the ring-constrained join of two pointsets.

    The one-call public API: one call into the unified join planner
    (:func:`repro.engine.run_join`, which accepts the same method
    names as ``algorithm=``), returning the result pairs, each carrying
    its fair middleman location (``pair.center``) and fairness radius
    (``pair.radius``).

    Parameters
    ----------
    points_p, points_q:
        The two datasets; ``oid`` values identify points in the result.
    method:
        ``"obj"`` (paper's best; default), ``"bij"``, ``"inj"``,
        ``"gabriel"`` (main-memory Delaunay-based), ``"brute"``
        (quadratic oracle), ``"array"`` (vectorized batch engine; its
        candidates come from one Delaunay triangulation of
        ``P ∪ Q``), ``"array-parallel"`` (the same engine in-process:
        the triangulation is global, so the RCJ does not shard) or
        ``"auto"`` (cost-based planner picks among the above).
    buffer_fraction:
        LRU buffer size as a fraction of the summed index sizes (R-tree
        methods only).
    workers:
        Worker budget of ``"auto"`` planning (``None`` = all cores;
        the RCJ itself always runs on one thread).

    Returns
    -------
    The RCJ result pairs (order unspecified).
    """
    return run_join(
        points_p,
        points_q,
        algorithm=method,
        buffer_fraction=buffer_fraction,
        workers=workers,
    ).pairs


__all__ = [
    "Circle",
    "DynamicArrayRCJ",
    "DynamicBackend",
    "DynamicRCJ",
    "JoinReport",
    "NonFiniteCoordinateError",
    "Point",
    "PointArray",
    "RCJPair",
    "RTree",
    "Rect",
    "Workload",
    "bij",
    "brute_force_rcj",
    "build_workload",
    "bulk_load",
    "gabriel_rcj",
    "gaussian_clusters",
    "incremental_rcj",
    "inj",
    "join_combination",
    "locales",
    "make_dynamic",
    "metric_rcj",
    "obj",
    "populated_places",
    "ring_constrained_join",
    "run_algorithm",
    "run_join",
    "run_topk",
    "schools",
    "self_rcj",
    "top_k_rcj",
    "uniform",
]
