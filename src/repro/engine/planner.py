"""The unified join planner: one request, one planner, one executor.

:func:`run_join` is the single entry point every caller (CLI, bench
harness, tests, applications) dispatches through: it takes the two
pointsets, an algorithm (or engine) name and the join family, runs the
join and returns the ordinary :class:`~repro.core.pairs.JoinReport` —
so accounting, evaluation and resemblance tooling work identically
whether the join ran on the paper's R-tree algorithms, the main-memory
comparators, or the vectorized array engine.

The RCJ's algorithms (the backend is implied by the name):

================== ==========================================
algorithm          implementation
================== ==========================================
``inj``            :func:`repro.core.inj.inj` (R-tree)
``bij``            :func:`repro.core.bij.bij` (R-tree)
``obj``            :func:`repro.core.bij.bij`, symmetric (R-tree)
``brute``          :func:`repro.core.brute.brute_force_rcj`
``gabriel``        :func:`repro.core.gabriel.gabriel_rcj`
``array``          the bulk RCJ pipeline
                   (:func:`repro.engine.families.rcj_pipeline`)
``array-parallel`` the same pipeline, in-process: its
                   triangulation is global, so the RCJ does
                   not shard (:mod:`repro.parallel` pools the
                   ε- and kNN joins)
``auto``           cost-based choice between ``array`` and
                   ``obj``
================== ==========================================

Every front door — :func:`run_join` (any family; the RCJ with ``k`` is
the top-k RCJ), :func:`run_topk`, :func:`repro.core.selfjoin.self_rcj`,
:func:`repro.ring_constrained_join`, the bench rows
(:func:`repro.bench.runner.run_algorithm`) and the CLI — builds one
validated :class:`~repro.engine.request.JoinRequest` and hands it to
one executor, :func:`_execute`, the only dispatcher.  ``engine="auto"``
consults the cost-based planner
(:func:`repro.parallel.costmodel.plan_join`), whose decision — an
:class:`~repro.parallel.costmodel.ExecutionPlan` — rides on
``report.plan`` (the CLI's ``--explain``).  The columnar engines run
one declared pipeline (:func:`repro.engine.families.run_array_pipeline`);
the R-tree algorithms, the main-memory comparators, the R-tree top-k
heap and the families' pointwise oracles fill the same report, and one
epilogue records wall time, the workers that ran, the trace and the
per-stage times summed from it (also ``report.plan.measured`` for
planned runs) for cost-model calibration.
:func:`make_dynamic` builds an incremental-maintenance backend
(columnar or R*-tree) behind the shared
:class:`~repro.core.dynamic.DynamicBackend` protocol.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Literal, Sequence, get_args

from repro.core.bij import bij
from repro.core.brute import brute_candidate_count, brute_force_rcj
from repro.core.gabriel import gabriel_rcj
from repro.core.inj import inj
from repro.core.pairs import JoinReport, RCJPair
from repro.engine.families import (
    SHARDABLE_FAMILIES,
    _pointwise_family,
    build_family_pipeline,
    rcj_pipeline,
    run_array_pipeline,
)
from repro.engine.request import JoinRequest
from repro.geometry.point import Point
from repro.obs.trace import add_counter, stage_totals
from repro.obs.trace import trace as obs_trace
from repro.storage.stats import CostModel

#: Every algorithm :func:`run_join` can dispatch for the RCJ — also the
#: ``method`` of :func:`repro.ring_constrained_join` and the
#: ``algorithm`` of :func:`repro.core.selfjoin.self_rcj`.
AlgorithmName = Literal[
    "inj", "bij", "obj", "brute", "gabriel", "array", "array-parallel", "auto"
]
ALGORITHM_NAMES: tuple[str, ...] = get_args(AlgorithmName)

#: ``engine=`` values accepted by every front door (``"pointwise"`` keeps
#: the RCJ's ``algorithm`` as given and runs the other families'
#: reference oracles).
ENGINE_NAMES = ("pointwise", "array", "array-parallel", "auto")

#: ``engine=`` values :func:`run_topk` accepts: the front-door names plus
#: ``"obj"``.  ``"pointwise"`` and ``"obj"`` are the lazy R-tree route;
#: ``"array-parallel"`` coerces to the (serial) array pipeline, as for
#: every family outside :data:`SHARDABLE_FAMILIES`.
TOPK_ENGINE_NAMES = ENGINE_NAMES + ("obj",)

_RTREE_ALGORITHMS = ("inj", "bij", "obj")

#: Keywords :func:`run_join` passes through to the algorithm it runs.
_OPTION_NAMES = ("search_order", "seed", "verify", "bounds", "min_shard")


def run_join(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    algorithm: str = "obj",
    *,
    engine: str | None = None,
    family: str = "rcj",
    k: int | None = None,
    eps: float | None = None,
    workers: int | None = None,
    buffer_budget_bytes: int | None = None,
    exclude_same_oid: bool = False,
    buffer_fraction: float | None = None,
    cost_model: CostModel | None = None,
    workload=None,
    **algorithm_kwargs,
) -> JoinReport:
    """Run one join end to end and return its report.

    Parameters
    ----------
    points_p, points_q:
        The inner and outer datasets (``points_q`` drives the probe
        loop of the R-tree algorithms, matching
        :func:`repro.ring_constrained_join`).
    algorithm:
        The RCJ's algorithm, one of :data:`ALGORITHM_NAMES`
        (case-insensitive); it implies the backend.  ``"auto"`` defers
        the choice to the cost-based planner.
    engine:
        Execution-strategy override of ``algorithm``: ``"array"``,
        ``"array-parallel"`` (the worker pool for the ε- and kNN joins;
        the RCJ's Delaunay candidates are global, so for the RCJ, kcp
        and the CIJ it runs the ``"array"`` pipeline in-process),
        ``"auto"`` (cost-based planning) or ``"pointwise"`` (keep
        ``algorithm`` as given; for the other families, the reference
        oracle).
    family:
        The join family (:data:`repro.engine.families.FAMILY_NAMES`).
        ``"rcj"`` (default) runs this planner's own algorithms; the
        other families run their pipelines or oracles with the same
        engine selection (default ``"auto"``) — ε-joins need ``eps``,
        kNN and k-closest-pairs need ``k``.
    k:
        Result-size bound.  For the RCJ it selects ordered browsing:
        the ``k`` smallest-diameter pairs in ascending order, the same
        run as :func:`run_topk` (``algorithm`` ``"obj"`` is the R-tree
        heap, ``"array"`` the band pipeline, ``"auto"`` the planner's
        choice).  The kNN and k-closest-pairs families require it.
    workers:
        Worker-thread budget for the parallel engine and the planner
        (``None`` = all cores; ignored by serial engines and families
        that do not shard).
    buffer_budget_bytes:
        Memory budget consulted by ``"auto"`` planning (default
        :func:`repro.parallel.costmodel.memory_budget_bytes`).
    exclude_same_oid:
        Self-join mode — a point never pairs with itself.
    buffer_fraction:
        LRU buffer sizing for the R-tree algorithms (paper default 1 %).
    cost_model:
        I/O and CPU charging model for the R-tree algorithms.
    workload:
        Optional prebuilt :class:`repro.bench.runner.Workload` to reuse
        existing indexes (R-tree routes only); its counters are reset.
    algorithm_kwargs:
        Passed through to the underlying algorithm, one of
        :data:`_OPTION_NAMES`: ``search_order`` / ``seed`` (INJ),
        ``verify`` (the R-tree algorithms), ``bounds`` (the CIJ's
        clipping region), ``min_shard`` (the worker pool's shard
        floor).  Any other keyword raises ``TypeError``.
    """
    unexpected = sorted(set(algorithm_kwargs) - set(_OPTION_NAMES))
    if unexpected:
        raise TypeError(
            f"run_join() got unexpected keyword arguments {unexpected}"
        )
    if family != "rcj" and algorithm != "obj":
        raise ValueError("family joins take engine=..., not algorithm=")
    request = JoinRequest(
        family,
        k=k,
        eps=eps,
        exclude_same_oid=exclude_same_oid,
        workers=workers,
        budget_bytes=buffer_budget_bytes,
    )
    return _execute(
        request,
        points_p,
        points_q,
        _engine_for(family, engine, algorithm),
        workload=workload,
        buffer_fraction=buffer_fraction,
        cost_model=cost_model,
        options=algorithm_kwargs,
    )


def run_topk(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    k: int,
    engine: str = "auto",
    *,
    exclude_same_oid: bool = False,
    workers: int | None = None,
    buffer_budget_bytes: int | None = None,
    workload=None,
) -> JoinReport:
    """The ``k`` smallest-diameter RCJ pairs, through the planner.

    The ordered-browsing entry point (the paper's tourist
    recommendation): returns a :class:`JoinReport` whose ``pairs`` are
    the first ``k`` entries of the canonically sorted join result
    (ascending ring diameter, ties by ``(p.oid, q.oid)``), computed
    lazily — neither route materialises the full join for small ``k``.

    Engines
    -------
    ``"array"`` (``"array-parallel"`` coerces to it: the bands are
    globally ordered, so they do not shard)
        The ``rcj`` family pipeline with ``k``
        (:func:`repro.engine.families.build_family_pipeline`):
        expanding-radius candidate bands with a resume cursor, each
        sorted canonically and streamed in growing chunks (``k``,
        ``2k``, ``4k``, … pairs), Ψ− pruning, batch ring verification,
        and a sink that stops the stream at the chunk bringing the
        ``k``-th verified pair.  The trace's ``candidates`` /
        ``verified`` count that consumed prefix, not whole bands.
    ``"obj"`` / ``"pointwise"``
        The R-tree incremental distance join
        (:func:`repro.core.topk.top_k_rcj`) — work proportional to the
        answer's neighbourhood; reuses ``workload``'s indexes when
        given.  Note the heap's tie order is arrival order, so on
        datasets with exactly tied pair distances the tail of a tied
        run may differ from the canonical order (the array route sorts
        ties canonically).
    ``"auto"``
        :func:`repro.parallel.costmodel.choose_topk_plan` picks from
        ``k``, the sizes and the density sample; the decision rides on
        ``report.plan``.
    """
    request = JoinRequest(
        k=k,
        exclude_same_oid=exclude_same_oid,
        workers=workers,
        budget_bytes=buffer_budget_bytes,
    )
    return _execute(request, points_p, points_q, engine, workload=workload)


def _engine_for(
    family: str, engine: str | None, algorithm: str = "obj"
) -> str:
    """The engine name one front-door call asks for: ``engine``
    overrides the RCJ's ``algorithm`` unless it is ``"pointwise"``
    (keep the algorithm); the other families default to ``"auto"``."""
    if engine is not None and engine not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
        )
    if family != "rcj":
        return engine or "auto"
    return algorithm.lower() if engine in (None, "pointwise") else engine


def _resolve(
    request: JoinRequest,
    points_p,
    points_q,
    name: str,
):
    """``(engine, plan)`` for one request: aliases resolved and
    ``"auto"`` planned (:func:`repro.parallel.costmodel.plan_join`)."""
    kind = request.kind
    if kind == "topk":
        if name not in TOPK_ENGINE_NAMES:
            raise ValueError(
                f"unknown top-k engine {name!r}; "
                f"expected one of {TOPK_ENGINE_NAMES}"
            )
        if name == "pointwise":
            name = "obj"
    plan = None
    if name == "auto":
        # Imported lazily: repro.parallel builds on the engine package.
        from repro.parallel import costmodel

        plan = costmodel.plan_join(request, points_p, points_q)
        name = plan.engine
    if name == "array-parallel" and request.family not in SHARDABLE_FAMILIES:
        name = "array"
    if kind == "join" and name not in ALGORITHM_NAMES:
        raise ValueError(
            f"unknown algorithm {name!r}; expected one of {ALGORITHM_NAMES}"
        )
    return name, plan


#: Trace root of each request kind.
_ROOT_SPANS = {"join": "join", "topk": "topk", "family": "family-join"}


def _execute(
    request: JoinRequest,
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    engine: str,
    *,
    workload=None,
    buffer_fraction: float | None = None,
    cost_model: CostModel | None = None,
    options: dict | None = None,
) -> JoinReport:
    """Plan (under ``"auto"``), run and account one join request.

    Every front door ends here.  The columnar engines run one declared
    pipeline (:func:`repro.engine.families.run_array_pipeline`); the
    oracle routes — the paper's R-tree algorithms, the main-memory
    comparators, the R-tree top-k heap and each family's pointwise
    reference — fill the same report.  Then one epilogue measures the
    wall time, the workers that ran, the trace counters and stages,
    and feeds planned runs to the calibration log.
    """
    options = dict(options or {})
    kind = request.kind
    bounds = options.pop("bounds", None)  # the CIJ's clipping region
    if request.family not in SHARDABLE_FAMILIES:
        options.pop("min_shard", None)  # a pool hint; only pools take it
    name, plan = _resolve(request, points_p, points_q, engine)
    workers = request.workers if plan is None else plan.workers

    attrs = {"family": request.family} if kind == "family" else {}
    attrs["engine"] = name
    if kind == "topk":
        attrs["k"] = request.k
    elif kind == "join" and name in _RTREE_ALGORITHMS:
        attrs["backend"] = "rtree"
    workers_used = 1
    t0 = time.perf_counter()
    with obs_trace(
        _ROOT_SPANS[kind], **attrs, n_p=len(points_p), n_q=len(points_q)
    ) as root:
        if name in ("array", "array-parallel"):
            report = JoinReport(_report_name(request, name))
            if not request.is_empty:
                (
                    report.pairs,
                    report.candidate_count,
                    workers_used,
                ) = _run_columnar(
                    request, points_p, points_q, name, workers, bounds,
                    options,
                )
        else:
            report = _run_oracle(
                request, points_p, points_q, name, workload, bounds,
                buffer_fraction, cost_model, options,
            )
    if not (kind == "join" and name in _RTREE_ALGORITHMS):
        # The R-tree algorithms account their own CPU time (the
        # paper's cost model); everything else is measured here.
        report.cpu_seconds = time.perf_counter() - t0
    report.workers_used = workers_used
    report.plan = plan
    if root is not None:
        root.set(workers=report.workers_used)
        root.add("pairs", len(report.pairs))
    _attach_measurements(report, root)
    _record_observation(
        plan, report, kind,
        family=request.family if kind == "family" else None,
    )
    return report


def _report_name(request: JoinRequest, engine: str) -> str:
    if request.kind == "family":
        return f"{request.family.upper()}-{engine.upper()}"
    if request.kind == "topk":
        return f"TOPK-{engine.upper()}"
    return engine.upper()


def _run_columnar(
    request, points_p, points_q, engine, workers, bounds, options,
) -> tuple[list[RCJPair], int, int]:
    """One pipeline on the columnar engine: the bulk RCJ, the top-k
    RCJ or a family, in-process or sharded over the pool.  Returns
    ``(pairs, candidate_count, workers_used)``."""
    if request.kind == "join":
        build = partial(
            rcj_pipeline, exclude_same_oid=request.exclude_same_oid
        )
    else:
        build = partial(
            build_family_pipeline,
            request.family,
            eps=request.eps,
            k=request.k,
            bounds=bounds,
            exclude_same_oid=request.exclude_same_oid,
        )
    return run_array_pipeline(
        build,
        points_p,
        points_q,
        workers=workers if engine == "array-parallel" else 1,
        **options,
    )


def _run_oracle(
    request, points_p, points_q, name, workload, bounds, buffer_fraction,
    cost_model, options,
) -> JoinReport:
    """The object-code routes: the R-tree RCJ algorithms, the
    main-memory comparators, the R-tree top-k heap and the families'
    pointwise references."""
    kind = request.kind
    if kind == "family":
        report = JoinReport(_report_name(request, name))
        _pointwise_family(
            points_p, points_q, request.family, request.eps, request.k,
            bounds, report,
        )
        add_counter("node-accesses", report.node_accesses)
        return report
    if name in ("brute", "gabriel"):
        report = JoinReport(name.upper())
        if name == "brute":
            report.pairs = brute_force_rcj(
                points_p, points_q, exclude_same_oid=request.exclude_same_oid
            )
            report.candidate_count = brute_candidate_count(
                len(points_p), len(points_q)
            )
        else:
            report.pairs = gabriel_rcj(
                points_p, points_q, exclude_same_oid=request.exclude_same_oid
            )
            report.candidate_count = len(report.pairs)
        return report

    # The R-tree routes.  Imported lazily: repro.bench.runner
    # dispatches back into this planner for the array engine.
    from repro.bench.runner import DEFAULT_BUFFER_FRACTION, build_workload

    if workload is None:
        workload = build_workload(
            points_q,
            points_p,
            buffer_fraction=(
                DEFAULT_BUFFER_FRACTION
                if buffer_fraction is None
                else buffer_fraction
            ),
        )
    else:
        workload.reset()
    if kind == "topk":
        from repro.core.topk import top_k_rcj

        report = JoinReport(_report_name(request, name))
        report.pairs = top_k_rcj(
            workload.tree_p,
            workload.tree_q,
            request.k,
            exclude_same_oid=request.exclude_same_oid,
        )
        report.candidate_count = len(report.pairs)
        report.node_accesses = (
            workload.tree_p.node_accesses + workload.tree_q.node_accesses
        )
        report.page_faults = workload.buffer.stats.page_faults
        report.buffer_hits = workload.buffer.stats.buffer_hits
        add_counter("node-accesses", report.node_accesses)
        add_counter("page-faults", report.page_faults)
        return report
    common = dict(
        exclude_same_oid=request.exclude_same_oid,
        cost_model=cost_model,
        **options,
    )
    if name == "inj":
        report = inj(workload.tree_q, workload.tree_p, **common)
    else:
        report = bij(
            workload.tree_q, workload.tree_p, symmetric=name == "obj", **common
        )
    add_counter("node-accesses", report.node_accesses)
    add_counter("page-faults", report.page_faults)
    add_counter("buffer-hits", report.buffer_hits)
    add_counter("candidates", report.candidate_count)
    return report


def _attach_measurements(report: JoinReport, root) -> None:
    """Attach the trace and the per-stage wall times summed from it
    (:func:`repro.obs.trace.stage_totals`) to the report and, for
    planned runs, to the plan — estimates next to measurements is what
    cost-model calibration consumes.  Deriving every figure from the
    one tree keeps them sum-consistent with the exported trace; an
    untraced run (``root is None``) carries no stage split.
    """
    report.trace = root
    if root is None:
        return
    report.stage_seconds = stage_totals(root)
    if report.plan is not None and report.stage_seconds:
        report.plan = report.plan.with_measured(report.stage_seconds)


def _record_observation(
    plan, report, kind: str, family: str | None = None
) -> None:
    """Feed one planned execution to the calibration observation log.

    Only ``engine="auto"`` runs are recorded (they carry the estimates
    a fit needs).  Nothing here may fail the join: the whole hook is
    exception-fenced, and :mod:`repro.calibration` is imported lazily
    so a broken or disabled calibration store degrades to a no-op.
    """
    if plan is None:
        return
    try:
        from repro.calibration.observations import record_planned_run

        record_planned_run(plan, report, kind, family=family)
    except Exception:
        pass


def make_dynamic(
    points_p: Sequence[Point] = (),
    points_q: Sequence[Point] = (),
    backend: str = "auto",
    *,
    batch_size: int = 1,
    **backend_kwargs,
):
    """Build a dynamic RCJ maintainer behind the shared protocol.

    Returns a :class:`repro.core.dynamic.DynamicBackend`: the columnar
    :class:`repro.engine.streaming.DynamicArrayRCJ` (``"array"``), the
    R*-tree :class:`repro.core.dynamic.DynamicRCJ` (``"obj"``), or the
    cost model's choice (``"auto"`` —
    :func:`repro.parallel.costmodel.choose_dynamic_backend`: columnar
    while the resident working set fits the memory budget, disk-backed
    beyond it, and — once ``kind="dynamic"`` calibration observations
    exist for both backends — whichever the fitted profile predicts
    faster per batch).  Both backends maintain identical pair sets, so
    the choice is purely an execution-cost decision.

    ``batch_size`` is the expected ``apply_batch`` size of the
    deployment (it parameterizes the profile prediction; it does not
    constrain usage).  Planned (``"auto"``) instances record their
    batches to the calibration log, which is what makes the next
    planning decision profile-aware.

    ``backend_kwargs`` pass through to the chosen class (``bounds``
    for either; ``page_size`` for the R*-tree backend).
    """
    from repro.engine.streaming import DynamicArrayRCJ

    planned = backend == "auto"
    if planned:
        from repro.parallel.costmodel import choose_dynamic_backend

        backend, _reason = choose_dynamic_backend(
            len(points_p), len(points_q), batch_size
        )
    if backend == "array":
        dyn = DynamicArrayRCJ(points_p, points_q, **backend_kwargs)
    elif backend == "obj":
        from repro.core.dynamic import DynamicRCJ

        dyn = DynamicRCJ(points_p, points_q, **backend_kwargs)
    else:
        raise ValueError(
            f"unknown dynamic backend {backend!r}; "
            "expected 'auto', 'array' or 'obj'"
        )
    if planned:
        dyn.record_calibration = True
    return dyn
