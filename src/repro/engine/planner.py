"""The unified join planner.

:func:`run_join` is the single entry point every caller (CLI, bench
harness, tests, applications) can dispatch through: it takes the two
pointsets, an algorithm name and an execution backend, runs the join and
returns the ordinary :class:`~repro.core.pairs.JoinReport` — so
accounting, evaluation and resemblance tooling work identically whether
the join ran on the paper's R-tree algorithms, the main-memory
comparators, or the vectorized array engine.

Algorithms and their backends:

================== ========== ==========================================
algorithm          backend    implementation
================== ========== ==========================================
``inj``            ``rtree``  :func:`repro.core.inj.inj`
``bij``            ``rtree``  :func:`repro.core.bij.bij`
``obj``            ``rtree``  :func:`repro.core.bij.bij` (symmetric)
``brute``          ``memory`` :func:`repro.core.brute.brute_force_rcj`
``gabriel``        ``memory`` :func:`repro.core.gabriel.gabriel_rcj`
``array``          ``memory`` :func:`array_rcj` (the bulk RCJ pipeline)
``array-parallel`` ``memory`` :func:`array_parallel_rcj` (the same
                              pipeline on the worker pool,
                              :mod:`repro.parallel`)
``auto``           (planned)  cost-based choice among ``array-parallel``,
                              ``array`` and ``obj``
================== ========== ==========================================

``backend="auto"`` (the default) infers the backend from the algorithm;
passing an explicit backend that the algorithm cannot run on raises
``ValueError`` rather than silently substituting an implementation.

``algorithm="auto"`` (equivalently ``engine="auto"``) consults the
cost-based planner (:mod:`repro.parallel.costmodel`): dataset sizes, a
density sample and the memory budget pick the engine and worker count,
and the decision — an
:class:`~repro.parallel.costmodel.ExecutionPlan` — is attached to the
returned report as ``report.plan`` (the CLI's ``--explain``).

Both array engines, like every columnar join, execute one declared
pipeline through ``Pipeline.run``
(:func:`repro.engine.families.run_array_pipeline`).  Beyond the bulk
join, the planner fronts the other two workloads of the paper's
applications: :func:`run_topk` (ordered browsing — also reachable as
``run_join(mode="topk", k=...)``) dispatches between the ``rcj``
family's top-k pipeline and the R-tree incremental distance join,
and :func:`make_dynamic` builds an incremental-maintenance backend
(columnar or R*-tree) behind the shared
:class:`~repro.core.dynamic.DynamicBackend` protocol.  Memory-engine
executions record measured per-stage wall times on
``report.stage_seconds`` (and on ``report.plan.measured`` for planned
runs) for later cost-model calibration.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Sequence

from repro.core.bij import bij
from repro.core.brute import brute_candidate_count, brute_force_rcj
from repro.core.gabriel import gabriel_rcj
from repro.core.inj import inj
from repro.core.pairs import JoinReport, RCJPair
from repro.geometry.point import Point
from repro.obs.trace import stage_totals
from repro.obs.trace import trace as obs_trace
from repro.storage.stats import CostModel

#: Every algorithm :func:`run_join` can dispatch.
ALGORITHM_NAMES = (
    "inj",
    "bij",
    "obj",
    "brute",
    "gabriel",
    "array",
    "array-parallel",
    "auto",
)

#: Backend implied by each algorithm.
_ALGORITHM_BACKEND = {
    "inj": "rtree",
    "bij": "rtree",
    "obj": "rtree",
    "brute": "memory",
    "gabriel": "memory",
    "array": "memory",
    "array-parallel": "memory",
}

#: ``engine=`` values accepted as an execution-strategy override of
#: ``algorithm`` (``"pointwise"`` keeps the algorithm as given).
ENGINE_NAMES = ("pointwise", "array", "array-parallel", "auto")


def array_rcj(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    exclude_same_oid: bool = False,
    k0: int = 16,
    stage_seconds: dict | None = None,
) -> tuple[list[RCJPair], int]:
    """Compute the RCJ with the vectorized array engine.

    Runs the bulk RCJ pipeline
    (:func:`repro.engine.families.rcj_pipeline`) in-process over
    :class:`~repro.engine.arrays.PointArray` columns and materialises
    result pairs over the *original* :class:`Point` objects (identity
    is preserved, not reconstructed).  ``stage_seconds`` (when given)
    accumulates the measured candidate/prune/verify wall times.

    Returns ``(pairs, candidate_count)``.
    """
    return array_parallel_rcj(
        points_p,
        points_q,
        exclude_same_oid=exclude_same_oid,
        k0=k0,
        workers=1,
        stage_seconds=stage_seconds,
    )


def array_parallel_rcj(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    exclude_same_oid: bool = False,
    k0: int = 16,
    workers: int | None = None,
    min_shard: int | None = None,
    stage_seconds: dict | None = None,
    exec_info: dict | None = None,
) -> tuple[list[RCJPair], int]:
    """Compute the RCJ with the sharded multi-process engine.

    Same contract as :func:`array_rcj` — identical pair sets, original
    :class:`Point` identity preserved — with the bulk RCJ pipeline
    sharded over a worker pool (:func:`repro.parallel.pool.run_sharded`).
    ``workers=None`` uses all cores; small inputs fall back to the
    in-process run.  ``stage_seconds`` (when given) accumulates
    worker-measured per-stage times summed over shards; ``exec_info``
    (when given) receives how the run actually executed (effective
    ``workers``, ``shards``, ``pooled``, ``bytes_shipped``).

    Returns ``(pairs, candidate_count)``.
    """
    from repro.engine.families import rcj_pipeline, run_array_pipeline

    return run_array_pipeline(
        partial(rcj_pipeline, k0=k0, exclude_same_oid=exclude_same_oid),
        points_p,
        points_q,
        workers=workers,
        min_shard=min_shard,
        stage_seconds=stage_seconds,
        exec_info=exec_info,
    )


def run_join(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    algorithm: str = "obj",
    backend: str = "auto",
    *,
    engine: str | None = None,
    family: str = "rcj",
    mode: str = "join",
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
    """Run one RCJ algorithm end to end and return its report.

    Parameters
    ----------
    points_p, points_q:
        The inner and outer datasets (``points_q`` drives the probe
        loop of the R-tree algorithms, matching
        :func:`repro.ring_constrained_join`).
    algorithm:
        One of :data:`ALGORITHM_NAMES` (case-insensitive).
        ``"auto"`` defers the choice to the cost-based planner.
    backend:
        ``"auto"`` (infer), ``"rtree"`` (simulated-disk R-trees with
        full cost accounting) or ``"memory"`` (main-memory engines; the
        report carries measured CPU time but no I/O model).
    engine:
        Execution-strategy override of ``algorithm``: ``"array"``,
        ``"array-parallel"``, ``"auto"`` (cost-based planning) or
        ``"pointwise"`` (keep ``algorithm`` as given).  Mirrors the
        CLI's ``--engine`` flag.
    family:
        The join family (:data:`repro.engine.families.FAMILY_NAMES`).
        ``"rcj"`` (default) runs this planner's own algorithms; any
        other family dispatches to
        :func:`repro.engine.families.run_family_join` with the same
        engine selection — ε-joins need ``eps``, kNN and
        k-closest-pairs need ``k``.
    mode:
        ``"join"`` (the full result; default) or ``"topk"`` (the ``k``
        smallest-diameter pairs in ascending order — the CLI's
        ``--mode topk``); top-k requests delegate to :func:`run_topk`
        with the same engine selection.
    k:
        Result-size bound for ``mode="topk"`` (required there, ignored
        otherwise).
    workers:
        Worker-process budget for the parallel engine and the planner
        (``None`` = all cores; ignored by serial engines).
    buffer_budget_bytes:
        Memory budget consulted by ``"auto"`` planning (default
        :func:`repro.parallel.costmodel.memory_budget_bytes`).
    exclude_same_oid:
        Self-join mode — a point never pairs with itself.
    buffer_fraction:
        LRU buffer sizing for the R-tree backend (paper default 1 %).
    cost_model:
        I/O and CPU charging model for the R-tree backend.
    workload:
        Optional prebuilt :class:`repro.bench.runner.Workload` to reuse
        existing indexes (R-tree backend only); its counters are reset.
    algorithm_kwargs:
        Passed through to the underlying algorithm (e.g. ``verify``,
        ``search_order`` for INJ, ``k0`` for the array engine).
    """
    if family != "rcj":
        # Imported lazily: families builds on this planner.
        from repro.engine.families import run_family_join

        if mode != "join":
            raise ValueError(
                f"family={family!r} supports mode='join' only"
                " (k-closest-pairs IS the family's ordered mode)"
            )
        if algorithm != "obj" or backend != "auto":
            raise ValueError(
                "family joins take engine=..., not algorithm/backend"
            )
        if exclude_same_oid:
            raise ValueError(
                f"exclude_same_oid is not defined for family={family!r}"
            )
        return run_family_join(
            points_p,
            points_q,
            family,
            engine=engine,
            eps=eps,
            k=k,
            workers=workers,
            buffer_budget_bytes=buffer_budget_bytes,
            **algorithm_kwargs,
        )
    if eps is not None:
        raise ValueError("eps applies to family='epsilon' only")

    name = algorithm.lower()
    if engine is not None:
        if engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
            )
        if engine != "pointwise":
            name = engine

    if mode not in ("join", "topk"):
        raise ValueError(f"unknown mode {mode!r}; expected 'join' or 'topk'")
    if mode == "topk":
        if k is None:
            raise ValueError("mode='topk' requires k")
        return run_topk(
            points_p,
            points_q,
            k,
            engine=name,
            exclude_same_oid=exclude_same_oid,
            workers=workers,
            buffer_budget_bytes=buffer_budget_bytes,
            workload=workload,
            **algorithm_kwargs,
        )

    plan = None
    if name == "auto":
        if backend != "auto":
            raise ValueError(
                "engine='auto' plans its own backend; "
                f"cannot force backend={backend!r}"
            )
        # Imported lazily: repro.parallel builds on the engine package.
        from repro.parallel.costmodel import choose_plan

        plan = choose_plan(
            points_p,
            points_q,
            workers=workers,
            budget_bytes=buffer_budget_bytes,
        )
        name = plan.engine
        workers = plan.workers
        # Engine tuning hints the planned engine cannot use are
        # dropped rather than crashing it: under auto they are hints,
        # not commands.
        if name != "array-parallel":
            algorithm_kwargs.pop("min_shard", None)
        if name == "obj":
            algorithm_kwargs.pop("k0", None)

    if name not in _ALGORITHM_BACKEND:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHM_NAMES}"
        )
    implied = _ALGORITHM_BACKEND[name]
    if backend == "auto":
        backend = implied
    if backend != implied:
        raise ValueError(
            f"algorithm {name!r} runs on the {implied!r} backend, not {backend!r}"
        )

    if backend == "rtree":
        # Imported lazily: repro.bench.runner dispatches back into this
        # planner for the array engine.
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
        common = dict(
            exclude_same_oid=exclude_same_oid,
            cost_model=cost_model,
            **algorithm_kwargs,
        )
        with obs_trace(
            "join",
            engine=name,
            backend="rtree",
            n_p=len(points_p),
            n_q=len(points_q),
        ) as root:
            if name == "inj":
                report = inj(workload.tree_q, workload.tree_p, **common)
            elif name == "bij":
                report = bij(
                    workload.tree_q, workload.tree_p, symmetric=False, **common
                )
            else:
                report = bij(
                    workload.tree_q, workload.tree_p, symmetric=True, **common
                )
        if root is not None:
            root.add("node-accesses", report.node_accesses)
            root.add("page-faults", report.page_faults)
            root.add("buffer-hits", report.buffer_hits)
            root.add("candidates", report.candidate_count)
            root.add("pairs", len(report.pairs))
        report.trace = root
        report.workers_used = 1
        report.plan = plan
        _record_observation(plan, report, "join")
        return report

    # -- main-memory backends ------------------------------------------
    report = JoinReport(name.upper())
    report.plan = plan
    stages: dict = {}
    exec_info: dict = {}
    t0 = time.perf_counter()
    with obs_trace(
        "join", engine=name, n_p=len(points_p), n_q=len(points_q)
    ) as root:
        if name == "brute":
            report.pairs = brute_force_rcj(
                points_p, points_q, exclude_same_oid=exclude_same_oid
            )
            report.candidate_count = brute_candidate_count(
                len(points_p), len(points_q)
            )
        elif name == "gabriel":
            report.pairs = gabriel_rcj(
                points_p, points_q, exclude_same_oid=exclude_same_oid
            )
            report.candidate_count = len(report.pairs)
        elif name == "array-parallel":
            report.pairs, report.candidate_count = array_parallel_rcj(
                points_p,
                points_q,
                exclude_same_oid=exclude_same_oid,
                workers=workers,
                stage_seconds=stages,
                exec_info=exec_info,
                **algorithm_kwargs,
            )
        else:  # array
            report.pairs, report.candidate_count = array_rcj(
                points_p,
                points_q,
                exclude_same_oid=exclude_same_oid,
                stage_seconds=stages,
                **algorithm_kwargs,
            )
    report.cpu_seconds = time.perf_counter() - t0
    report.workers_used = exec_info.get("workers", 1)
    if root is not None:
        root.set(workers=report.workers_used)
        root.add("pairs", len(report.pairs))
    _attach_measurements(report, stages, root)
    _record_observation(plan, report, "join")
    return report


def _attach_measurements(
    report: JoinReport, stages: dict, root=None
) -> None:
    """Record measured per-stage wall times on the report (and, for
    planned runs, on the plan itself — estimates next to measurements
    is what later cost-model calibration consumes).

    With a trace ``root``, the stage times come from the trace tree
    (:func:`repro.obs.trace.stage_totals`) — the accumulator dict and
    the tree measure the same instants, but deriving from the tree
    keeps ``report.stage_seconds``, ``report.plan.measured`` and the
    calibration observation sum-consistent with the exported trace by
    construction.  The trace itself rides on ``report.trace``.
    """
    report.trace = root
    if root is not None:
        totals = stage_totals(root)
        if totals:
            stages = totals
    if not stages:
        return
    report.stage_seconds = dict(stages)
    if report.plan is not None:
        report.plan = report.plan.with_measured(stages)


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


#: ``engine=`` values :func:`run_topk` accepts.  ``"pointwise"`` and
#: ``"obj"`` are the lazy R-tree route; ``"array-parallel"`` coerces to
#: the (serial) array pipeline — its distance bands are globally
#: ordered, so they do not shard.
TOPK_ENGINE_NAMES = ("auto", "array", "array-parallel", "obj", "pointwise")


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
    ``"array"``
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
    if engine not in TOPK_ENGINE_NAMES:
        raise ValueError(
            f"unknown top-k engine {engine!r}; "
            f"expected one of {TOPK_ENGINE_NAMES}"
        )
    name = {"pointwise": "obj", "array-parallel": "array"}.get(engine, engine)

    plan = None
    if name == "auto":
        from repro.parallel.costmodel import choose_topk_plan

        plan = choose_topk_plan(
            points_p,
            points_q,
            k,
            workers=workers,
            budget_bytes=buffer_budget_bytes,
            trees_prebuilt=workload is not None,
        )
        name = plan.engine

    report = JoinReport(f"TOPK-{name.upper()}")
    report.plan = plan
    stages: dict = {}
    t0 = time.perf_counter()
    with obs_trace(
        "topk", engine=name, k=k, n_p=len(points_p), n_q=len(points_q)
    ) as root:
        if name == "array":
            from repro.engine.families import (
                build_family_pipeline,
                run_array_pipeline,
            )

            if k > 0:
                report.pairs, report.candidate_count = run_array_pipeline(
                    partial(
                        build_family_pipeline,
                        "rcj",
                        k=k,
                        exclude_same_oid=exclude_same_oid,
                    ),
                    points_p,
                    points_q,
                    stage_seconds=stages,
                )
        else:  # obj: the R-tree incremental route
            from repro.bench.runner import build_workload
            from repro.core.topk import top_k_rcj

            if workload is None:
                workload = build_workload(points_q, points_p)
            else:
                workload.reset()
            report.pairs = top_k_rcj(
                workload.tree_p,
                workload.tree_q,
                k,
                exclude_same_oid=exclude_same_oid,
            )
            report.candidate_count = len(report.pairs)
            report.node_accesses = (
                workload.tree_p.node_accesses + workload.tree_q.node_accesses
            )
            report.page_faults = workload.buffer.stats.page_faults
            report.buffer_hits = workload.buffer.stats.buffer_hits
    report.cpu_seconds = time.perf_counter() - t0
    report.workers_used = 1
    if root is not None:
        root.add("pairs", len(report.pairs))
        if name != "array":
            root.add("node-accesses", report.node_accesses)
            root.add("page-faults", report.page_faults)
    _attach_measurements(report, stages, root)
    _record_observation(plan, report, "topk")
    return report


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
