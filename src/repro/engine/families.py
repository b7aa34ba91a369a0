"""Join families as declared pipelines over the columnar engine.

The paper compares the RCJ against the other pointset joins of its
Table 1 — the ε-join, the kNN-join, k-closest-pairs and the common
influence join (Figures 10–12).  Their reference implementations in
:mod:`repro.joins` are pointwise object code; this module re-expresses
each family, and the RCJ itself, as a short
:class:`~repro.engine.operators.Pipeline` over the engine's operator
stages.  Every columnar join therefore runs through one executor,
``Pipeline.run`` — in-process, or sharded over the worker pool
(:func:`repro.parallel.pool.run_sharded`) when its source can restrict
its probes:

=========== ========================================================
family      pipeline
=========== ========================================================
``epsilon`` ``range(eps) -> distance(d<=eps) -> collect``
``knn``     ``knn(k) -> collect``
``kcp``     ``band(k) -> take-smallest(k)`` (the expanding-radius
            cursor as an ordered source; stops at the chunk holding
            the ``k``-th pair)
``cij``     ``cell-overlap -> sat-verify -> collect``
``rcj``     bulk: ``delaunay -> verify -> collect``
            (:func:`rcj_pipeline`, behind
            :func:`repro.engine.planner.run_join`); with ``k``:
            ``band(k) -> prune -> verify -> take-smallest(k)`` (the
            top-k RCJ behind :func:`repro.engine.planner.run_topk`)
=========== ========================================================

Every pipeline's pair set is identical to its pointwise oracle's
(:mod:`repro.joins.epsilon`, :mod:`repro.joins.knn`,
:mod:`repro.joins.closest_pairs`, :mod:`repro.joins.common_influence`,
and the paper's RCJ algorithms) — the equivalence suites pin this —
and every traced run records its per-stage wall times as stage spans
(:func:`repro.obs.trace.stage_totals`).

:func:`repro.engine.planner.run_join` (``family=...``) is the front
door: it builds a :class:`~repro.engine.request.JoinRequest` and runs
it on the planner's one executor.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.pairs import JoinReport, RCJPair, pairs_from_indices
from repro.engine.arrays import PointArray
from repro.engine.operators import (
    BandSource,
    CellOverlapSource,
    CollectAll,
    CollectCanonical,
    DistanceFilter,
    DelaunaySource,
    JoinContext,
    KnnSource,
    Pipeline,
    PolygonIntersectVerify,
    PsiPruneFilter,
    RangeSource,
    RingBandSource,
    TakeSmallest,
    VerifyRings,
)
from repro.engine.request import FAMILY_NAMES, JoinRequest  # noqa: F401
from repro.geometry.point import Point
from repro.obs.trace import span

#: Families whose probe loop shards across threads.  The RCJ's
#: candidates come from one global triangulation (bulk) or globally
#: ordered bands (top-k), k-closest-pairs streams globally ordered
#: bands too, and the CIJ needs each side's whole Voronoi diagram (its
#: cells are built serially, in Python, and take most of its time; the
#: batched SAT verify that follows is a fraction of that), so all of
#: them coerce ``array-parallel`` to ``array``.
SHARDABLE_FAMILIES = ("epsilon", "knn")


def rcj_pipeline(exclude_same_oid: bool = False) -> Pipeline:
    """The bulk RCJ: Delaunay candidates (the exact scan for what Qhull
    cannot settle and the self-join filter inside the source; most rows
    already settled by the local Gabriel lemma) -> batch ring
    verification of the unsettled rows -> every pair in canonical index
    order."""
    return Pipeline(
        DelaunaySource(exclude_same_oid=exclude_same_oid),
        [VerifyRings()],
        CollectCanonical(),
    )


def build_family_pipeline(
    family: str,
    *,
    eps: float | None = None,
    k: int | None = None,
    bounds=None,
    probes=None,
    exclude_same_oid: bool = False,
) -> Pipeline:
    """The declared operator pipeline of one join family.

    ``probes`` restricts the probe rows of the sources that shard (the
    worker pool's seam); the Delaunay, band and cell sources see all
    rows at once, so asking them for a restriction raises
    ``ValueError``.
    ``bounds`` overrides the CIJ clipping region.  ``family="rcj"`` is
    the bulk RCJ (:func:`rcj_pipeline`), or with ``k`` the top-k RCJ
    composed from the generic band, prune and verify stages.
    """
    JoinRequest(family, k=k, eps=eps, exclude_same_oid=exclude_same_oid)
    if family == "epsilon":
        return Pipeline(
            RangeSource(eps, probes=probes),
            [DistanceFilter(eps)],
            CollectAll(),
        )
    if family == "knn":
        return Pipeline(KnnSource(k, probes=probes), [], CollectAll())
    if probes is not None:
        raise ValueError(
            f"the {family!r} pipeline cannot be restricted to probe rows"
            " (its source needs every row at once)"
        )
    if family == "rcj" and k is None:
        return rcj_pipeline(exclude_same_oid=exclude_same_oid)
    if family == "kcp":
        return Pipeline(
            BandSource(k_hint=k, exclude_same_oid=exclude_same_oid),
            [],
            TakeSmallest(k),
        )
    if family == "rcj":
        return Pipeline(
            RingBandSource(k_hint=k, exclude_same_oid=exclude_same_oid),
            [PsiPruneFilter(), VerifyRings()],
            TakeSmallest(k),
        )
    return Pipeline(
        CellOverlapSource(bounds), [PolygonIntersectVerify()], CollectAll()
    )


def describe_family_pipeline(
    family: str,
    *,
    eps: float | None = None,
    k: int | None = None,
) -> str:
    """The pipeline's operator chain as a string, without running it."""
    if family in ("knn", "kcp") and k is None:
        k = 1
    return build_family_pipeline(family, eps=eps, k=k).describe()


def run_array_pipeline(
    build,
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    *,
    workers: int | None = 1,
    min_shard: int | None = None,
) -> tuple[list[RCJPair], int, int]:
    """Run one pipeline over two point lists on the columnar engine.

    ``build(probes=None)`` returns a fresh pipeline; pool threads call
    it once per shard.  With ``workers > 1`` (``None``: every core)
    the pipeline is sharded over the thread pool
    (:func:`repro.parallel.pool.run_sharded`), otherwise it runs
    in-process.  Pairs are materialized over the *original*
    :class:`Point` objects (identity preserved, not reconstructed) by
    :func:`repro.core.pairs.pairs_from_indices` — one object-array
    gather with the cyclic collector paused — under a plain
    ``materialize`` span (not a stage: ``stage_seconds`` keeps the
    pipeline's own operators).

    Returns ``(pairs, candidate_count, workers_used)``.
    """
    # Imported lazily: repro.parallel builds on the engine package.
    from repro.parallel.pool import run_sharded

    points_p = list(points_p)
    points_q = list(points_q)
    ctx = JoinContext(
        PointArray.from_points(points_p),
        PointArray.from_points(points_q),
        points_p=points_p,
        points_q=points_q,
    )
    kwargs = {} if min_shard is None else {"min_shard": min_shard}
    result = run_sharded(build, ctx, workers=workers, **kwargs)
    with span("materialize", pairs=len(result)):
        pairs = pairs_from_indices(
            points_p, points_q, result.p_idx, result.q_idx
        )
    return pairs, int(ctx.counters.get("candidates", 0)), ctx.workers


def _canonical_pairs(pairs: list[tuple[Point, Point]]) -> list[RCJPair]:
    """Wrap oracle output pairs in canonical ``(p.oid, q.oid)`` order."""
    return [
        RCJPair(p, q)
        for p, q in sorted(pairs, key=lambda t: (t[0].oid, t[1].oid))
    ]


def _pointwise_family(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    family: str,
    eps: float | None,
    k: int | None,
    bounds,
    report: JoinReport,
) -> None:
    """Run the reference oracle of one family into ``report``."""
    from repro.rtree.bulk import bulk_load

    if family == "epsilon":
        if not points_p or not points_q:
            report.pairs = []
            return
        tree_p = bulk_load(points_p, name="FP")
        tree_q = bulk_load(points_q, name="FQ")
        from repro.joins.epsilon import epsilon_join

        report.pairs = _canonical_pairs(epsilon_join(tree_p, tree_q, eps))
        report.node_accesses = tree_p.node_accesses + tree_q.node_accesses
    elif family == "knn":
        if not points_p or not points_q or k <= 0:
            report.pairs = []
            return
        tree_q = bulk_load(points_q, name="FQ")
        from repro.joins.knn import knn_join

        report.pairs = _canonical_pairs(knn_join(points_p, tree_q, k))
        report.node_accesses = tree_q.node_accesses
    elif family == "kcp":
        if not points_p or not points_q or k <= 0:
            report.pairs = []
            return
        tree_p = bulk_load(points_p, name="FP")
        tree_q = bulk_load(points_q, name="FQ")
        from repro.joins.closest_pairs import k_closest_pairs

        report.pairs = [
            RCJPair(p, q) for _d, p, q in k_closest_pairs(tree_p, tree_q, k)
        ]
        report.node_accesses = tree_p.node_accesses + tree_q.node_accesses
    else:  # cij
        from repro.joins.common_influence import common_influence_join

        report.pairs = _canonical_pairs(
            common_influence_join(points_p, points_q, bounds=bounds)
        )
    report.candidate_count = len(report.pairs)


def explain_family(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    family: str,
    *,
    eps: float | None = None,
    k: int | None = None,
    workers: int | None = None,
    budget_bytes: int | None = None,
) -> str:
    """Explain block for one family join: the plan
    :func:`repro.parallel.costmodel.plan_join` makes for it plus the
    declared pipeline with its per-stage estimates (the CLI's
    ``join --family ... --explain``)."""
    from repro.parallel.costmodel import plan_join

    request = JoinRequest(
        family, k=k, eps=eps, workers=workers, budget_bytes=budget_bytes
    )
    return explain_plan(
        plan_join(request, points_p, points_q), family, eps=eps, k=k
    )


def explain_plan(
    plan, family: str, *, eps: float | None = None, k: int | None = None
) -> str:
    """Explain block of one plan — made for, or attached to the report
    of, a ``family`` join: the plan, the declared pipeline and its
    per-stage estimates."""
    probe = plan.n_p if family == "knn" else plan.n_q
    lines = [
        plan.describe(),
        "pipeline: " + describe_family_pipeline(family, eps=eps, k=k),
        f"  source:  ~{probe} probes -> ~{plan.est_candidates} candidate"
        " pairs",
    ]
    if family == "epsilon":
        lines.append("  filter:  exact d<=eps cut over each candidate block")
    elif family == "cij":
        lines.append("  verify:  convex SAT per overlapping cell-bbox pair")
    elif k is not None and family in ("kcp", "rcj"):
        lines.append(f"  sink:    stop at the ordered chunk holding pair {k}")
    return "\n".join(lines)
