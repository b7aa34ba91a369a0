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
``rcj``     bulk: ``knn-window(k0) -> verify -> collect``
            (:func:`rcj_pipeline`, behind
            :func:`repro.engine.planner.run_join`); with ``k``:
            ``band(k) -> prune -> verify -> take-smallest(k)`` (the
            top-k RCJ behind :func:`repro.engine.planner.run_topk`)
=========== ========================================================

Every pipeline's pair set is identical to its pointwise oracle's
(:mod:`repro.joins.epsilon`, :mod:`repro.joins.knn`,
:mod:`repro.joins.closest_pairs`, :mod:`repro.joins.common_influence`,
and the paper's RCJ algorithms) — the equivalence suites pin this —
and every run records measured per-stage wall times on
``JoinReport.stage_seconds``.

:func:`run_family_join` is the execution entry point;
:func:`repro.engine.planner.run_join` dispatches to it for
``family != "rcj"`` so callers keep one front door.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Sequence

from repro.core.pairs import JoinReport, RCJPair
from repro.engine.arrays import PointArray
from repro.engine.kernels import DEFAULT_K0
from repro.engine.operators import (
    BandSource,
    CellOverlapSource,
    CollectAll,
    CollectCanonical,
    DistanceFilter,
    JoinContext,
    KnnSource,
    KnnWindowSource,
    Pipeline,
    PolygonIntersectVerify,
    PsiPruneFilter,
    RangeSource,
    RingBandSource,
    TakeSmallest,
    VerifyRings,
)
from repro.geometry.point import Point
from repro.obs.trace import trace as obs_trace

#: The join families :func:`run_family_join` dispatches.
FAMILY_NAMES = ("rcj", "epsilon", "knn", "kcp", "cij")

#: ``engine=`` values a family join accepts (mirrors the planner's).
FAMILY_ENGINE_NAMES = ("pointwise", "array", "array-parallel", "auto")

#: Families whose probe loop shards across processes.  k-closest-pairs
#: streams globally ordered bands (no probe-disjoint decomposition) and
#: the CIJ's cost is dominated by the serial geometric step, so both
#: coerce ``array-parallel`` to ``array``.
SHARDABLE_FAMILIES = ("epsilon", "knn")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _check_family_params(
    family: str, eps: float | None, k: int | None
) -> None:
    _require(
        family in FAMILY_NAMES,
        f"unknown join family {family!r}; expected one of {FAMILY_NAMES}",
    )
    if family == "epsilon":
        _require(eps is not None, "family='epsilon' requires eps")
        _require(eps >= 0, f"negative epsilon {eps}")
    elif family in ("knn", "kcp"):
        _require(k is not None, f"family={family!r} requires k")
    elif family == "cij":
        _require(eps is None and k is None, "family='cij' takes no parameter")
    else:  # rcj
        _require(eps is None, "eps applies to family='epsilon' only")


def rcj_pipeline(
    k0: int = DEFAULT_K0,
    exclude_same_oid: bool = False,
    probes=None,
) -> Pipeline:
    """The bulk RCJ: kNN-window candidates (Ψ− pruning, cone-cover
    escalation and the self-join filter inside the source) -> batch
    ring verification -> every pair in canonical index order."""
    return Pipeline(
        KnnWindowSource(k0, exclude_same_oid=exclude_same_oid, probes=probes),
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
    worker pool's seam); the band and cell sources see all rows at
    once, so asking them for a restriction raises ``ValueError``.
    ``bounds`` overrides the CIJ clipping region.  ``family="rcj"`` is
    the bulk RCJ (:func:`rcj_pipeline`), or with ``k`` the top-k RCJ
    composed from the generic band, prune and verify stages.
    """
    _check_family_params(family, eps, k)
    if family == "epsilon":
        return Pipeline(
            RangeSource(eps, probes=probes),
            [DistanceFilter(eps)],
            CollectAll(),
        )
    if family == "knn":
        return Pipeline(KnnSource(k, probes=probes), [], CollectAll())
    if family == "rcj" and k is None:
        return rcj_pipeline(exclude_same_oid=exclude_same_oid, probes=probes)
    _require(
        probes is None,
        f"the {family!r} pipeline cannot be restricted to probe rows"
        " (its source needs every row at once)",
    )
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
    stage_seconds: dict | None = None,
    exec_info: dict | None = None,
) -> tuple[list[RCJPair], int]:
    """Run one pipeline over two point lists on the columnar engine.

    ``build(probes=None)`` returns a fresh pipeline; it must pickle
    (a module-level function or a ``functools.partial`` of one), since
    pool workers call it per shard.  With ``workers > 1`` (``None``:
    every core) the pipeline is sharded over the worker pool
    (:func:`repro.parallel.pool.run_sharded`), otherwise it runs
    in-process.  Pairs are materialized over the *original*
    :class:`Point` objects (identity preserved, not reconstructed).

    Returns ``(pairs, candidate_count)``.
    """
    # Imported lazily: repro.parallel builds on the engine package.
    from repro.parallel.pool import run_sharded

    points_p = list(points_p)
    points_q = list(points_q)
    ctx = JoinContext(
        PointArray.from_points(points_p),
        PointArray.from_points(points_q),
        stage_seconds=stage_seconds,
        points_p=points_p,
        points_q=points_q,
    )
    kwargs = {} if min_shard is None else {"min_shard": min_shard}
    result = run_sharded(
        build, ctx, workers=workers, exec_info=exec_info, **kwargs
    )
    pairs = [
        RCJPair(points_p[pi], points_q[qi])
        for pi, qi in zip(result.p_idx.tolist(), result.q_idx.tolist())
    ]
    return pairs, int(ctx.counters.get("candidates", 0))


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


def run_family_join(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    family: str,
    *,
    engine: str | None = None,
    eps: float | None = None,
    k: int | None = None,
    bounds=None,
    workers: int | None = None,
    buffer_budget_bytes: int | None = None,
    min_shard: int | None = None,
) -> JoinReport:
    """Run one join family end to end and return its report.

    Parameters
    ----------
    points_p, points_q:
        The two pointsets (``points_p`` is the neighbour side of the
        kNN join: pairs are ``<p, q among p's k NNs in Q>``... see each
        family's oracle for its orientation).
    family:
        One of :data:`FAMILY_NAMES` (``"rcj"`` delegates to the bulk
        RCJ planner, :func:`repro.engine.planner.run_join`; it takes no
        ``k`` — the top-k RCJ is :func:`repro.engine.planner.run_topk`).
    engine:
        ``"pointwise"`` (the reference oracle), ``"array"`` (the serial
        pipeline), ``"array-parallel"`` (sharded pool, shardable
        families only — others coerce to ``"array"``) or ``"auto"``
        (default: :func:`repro.parallel.costmodel.choose_family_plan`,
        whose decision rides on ``report.plan``).
    eps, k:
        The family parameter (ε radius / result bound).
    bounds:
        CIJ clipping region override (default: the shared
        :func:`repro.joins.common_influence.cij_bounds`).
    workers, buffer_budget_bytes:
        Planner/parallel-engine budgets, as in ``run_join``.
    min_shard:
        Shard-granularity override for the parallel engine (tests force
        real pools on small data with it).
    """
    _check_family_params(family, eps, k)
    if engine is None:
        engine = "auto"
    if engine not in FAMILY_ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {FAMILY_ENGINE_NAMES}"
        )

    if family == "rcj":
        from repro.engine.planner import run_join

        _require(
            k is None,
            "family='rcj' is the full join and takes no k; for the k"
            " smallest-diameter pairs use run_topk(...) or"
            " run_join(..., mode='topk', k=...)",
        )
        # engine="pointwise" keeps run_join's default algorithm (the
        # paper's OBJ on the R-tree backend) — the RCJ reference oracle.
        # min_shard only shapes pools, so only pool-capable engines
        # see it.
        kwargs = (
            {"min_shard": min_shard}
            if min_shard is not None and engine in ("array-parallel", "auto")
            else {}
        )
        return run_join(
            points_p,
            points_q,
            engine=engine,
            workers=workers,
            buffer_budget_bytes=buffer_budget_bytes,
            **kwargs,
        )

    plan = None
    if engine == "auto":
        from repro.parallel.costmodel import choose_family_plan

        plan = choose_family_plan(
            family,
            points_p,
            points_q,
            eps=eps,
            k=k,
            workers=workers,
            budget_bytes=buffer_budget_bytes,
        )
        engine = plan.engine
        workers = plan.workers
    if engine == "array-parallel" and family not in SHARDABLE_FAMILIES:
        engine = "array"

    report = JoinReport(f"{family.upper()}-{engine.upper()}")
    report.plan = plan
    stages: dict = {}
    exec_info: dict = {}
    t0 = time.perf_counter()

    if engine == "pointwise":
        with obs_trace(
            "family-join",
            family=family,
            engine="pointwise",
            n_p=len(points_p),
            n_q=len(points_q),
        ) as root:
            _pointwise_family(
                points_p, points_q, family, eps, k, bounds, report
            )
        report.cpu_seconds = time.perf_counter() - t0
        report.workers_used = 1
        if root is not None:
            root.add("node-accesses", report.node_accesses)
            root.add("pairs", len(report.pairs))
        report.trace = root
        from repro.engine.planner import _record_observation

        _record_observation(plan, report, "family", family=family)
        return report

    if family in ("knn", "kcp") and k <= 0:
        report.pairs = []
        report.cpu_seconds = time.perf_counter() - t0
        return report

    with obs_trace(
        "family-join",
        family=family,
        engine=engine,
        n_p=len(points_p),
        n_q=len(points_q),
    ) as root:
        report.pairs, candidates = run_array_pipeline(
            partial(
                build_family_pipeline, family, eps=eps, k=k, bounds=bounds
            ),
            points_p,
            points_q,
            workers=workers if engine == "array-parallel" else 1,
            min_shard=min_shard,
            stage_seconds=stages,
            exec_info=exec_info,
        )

    report.candidate_count = candidates
    report.cpu_seconds = time.perf_counter() - t0
    report.workers_used = exec_info.get("workers", 1)
    if root is not None:
        root.set(workers=report.workers_used)
        root.add("pairs", len(report.pairs))
    from repro.engine.planner import _attach_measurements, _record_observation

    _attach_measurements(report, stages, root)
    _record_observation(plan, report, "family", family=family)
    return report


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
    """Explain block for one family join: the chosen plan plus the
    declared pipeline with its per-stage estimates (the CLI's
    ``join --family ... --explain``)."""
    _check_family_params(family, eps, k)
    if family == "rcj":
        from repro.parallel.costmodel import choose_plan

        plan = choose_plan(
            points_p, points_q, workers=workers, budget_bytes=budget_bytes
        )
    else:
        from repro.parallel.costmodel import choose_family_plan

        plan = choose_family_plan(
            family,
            points_p,
            points_q,
            eps=eps,
            k=k,
            workers=workers,
            budget_bytes=budget_bytes,
        )
    lines = [plan.describe()]
    lines.append(
        "pipeline: " + describe_family_pipeline(family, eps=eps, k=k)
    )
    n_p, n_q = len(points_p), len(points_q)
    probe = n_p if family == "knn" else n_q
    lines.append(
        f"  source:  ~{probe} probes -> ~{plan.est_candidates} candidate"
        " pairs"
    )
    if family == "epsilon":
        lines.append(
            "  filter:  exact d<=eps cut over each candidate block"
        )
    elif family == "cij":
        lines.append(
            "  verify:  convex SAT per overlapping cell-bbox pair"
        )
    elif family == "kcp":
        lines.append(
            f"  sink:    stop at the ordered chunk holding pair {k}"
        )
    return "\n".join(lines)
