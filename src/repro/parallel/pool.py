"""The sharded worker pool: fan any shardable pipeline over processes.

Execution shape
---------------
One worker stack and one driver, :func:`run_sharded`, serve every
pooled join — the bulk RCJ, the ε-join and the kNN join alike.  A
request is a pipeline *builder* (``build(probes=None) -> Pipeline``):
the coordinator asks it for the pipeline's probe side, serializes both
join columns (and the shard permutation of that side) into one
shared-memory block (:mod:`repro.parallel.sharedmem`) and starts a
**persistent** pool.  Each worker attaches the block and wraps it in
one :class:`~repro.engine.operators.JoinContext`, so the query
structures the pipeline asks for — KD-trees, the union verification
tree — are built once per worker, not per shard.  Every shard task is
just two integers (a range of the Hilbert-ordered probe permutation,
:mod:`repro.parallel.shards`); the worker runs ``build(probes=...)``
through ``Pipeline.run`` and ships back only the surviving pair
indices, which the coordinator merges with the pipeline's own sink.

Shards outnumber workers (:data:`SHARDS_PER_WORKER`) so a dense patch
of the plane cannot serialize the join behind one straggler.

Determinism
-----------
Shard probe sets are disjoint, the operators are exact (every shard
returns precisely its probes' true pairs), and the merged result is
re-ordered by the pipeline's sink (for the bulk RCJ the canonical pair
order, :func:`repro.engine.kernels.canonical_pair_order`) — so the
output is byte-identical for every worker count, every shard granularity and
every task completion order.  ``candidate_count`` is summed over shards
deterministically, but for the bulk RCJ its value reflects how the
escalation heuristics partitioned the work, so it may differ *between*
worker counts while pairs never do.

Cleanup
-------
The shared block is unlinked in a ``finally`` even when the pool dies
mid-join (worker crash, interrupt), so failed runs cannot leak
``/dev/shm`` segments.  A shard whose result raises (a task error, or
``BrokenProcessPool`` after a worker died) re-raises its exception
unchanged but for a note naming the shard's probe range.  Workers only
close their mappings.  All worker entry points are module-level
functions: the pool works under both ``fork`` (Linux default) and
``spawn`` (macOS/Windows) start methods.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, nullcontext
from functools import partial

import numpy as np

from repro.engine.arrays import PointArray
from repro.engine.kernels import DEFAULT_K0
from repro.engine.operators import CandidateBlock, JoinContext
from repro.obs.trace import set_attr, span, trace
from repro.obs.trace import reset as _reset_trace
from repro.parallel.sharedmem import SharedArrays, Spec
from repro.parallel.shards import DEFAULT_MIN_SHARD, plan_shards

#: Shards per worker: enough slack for load balancing across uneven
#: spatial density without drowning in per-task fixed costs.
SHARDS_PER_WORKER = 4


def serial_fallback_threshold(min_shard: int) -> int:
    """Probe count below which the join runs in-process: fewer than two
    useful shards means pool startup costs more than it can save.  The
    threshold scales with the ``min_shard`` override so tests can
    exercise real pools on small datasets."""
    return 2 * min_shard


#: The in-process fallback threshold at the default shard granularity —
#: the figure the cost-based planner must agree with
#: (:mod:`repro.parallel.costmodel` imports it).
MIN_PARALLEL_PROBES = serial_fallback_threshold(DEFAULT_MIN_SHARD)


def default_workers() -> int:
    """Worker count used when the caller does not pin one."""
    return max(1, os.cpu_count() or 1)


#: Per-process worker state, set by :func:`_init_worker`:
#: ``(shared block, JoinContext, probe order, pipeline builder)``.  The
#: block stays referenced because the context's columns are views into
#: its mapping.
_STATE: tuple | None = None


def _init_worker(spec: Spec, build) -> None:
    """Pool initializer: attach the shared columns and wrap them in one
    :class:`JoinContext` per process, so the query structures the
    pipeline asks for (KD-trees, the union tree) are built once per
    worker and reused by every shard it runs."""
    global _STATE
    _reset_trace()  # fork copies the coordinator's active-trace stack
    shared = SharedArrays.attach(spec)
    parr = PointArray._wrap(shared["px"], shared["py"], shared["poid"])
    qarr = PointArray._wrap(shared["qx"], shared["qy"], shared["qoid"])
    _STATE = (shared, JoinContext(parr, qarr), shared["order"], build)


def _run_shard(
    lo: int, hi: int, traced: bool = False
) -> tuple[np.ndarray, np.ndarray, dict, int, dict | None]:
    """One shard: the request's pipeline restricted to the probes
    ``order[lo:hi]``.  Returns ``(p_idx, q_idx, stage_seconds,
    candidate_count, span_tree)`` — per-stage wall times measured in
    the worker so the parent can sum them across shards onto the
    report (planned parallel runs feed the cost-model calibration like
    serial ones).  With ``traced`` the shard roots its own trace and
    ships the serialized span tree home for the coordinator to
    re-parent (:meth:`repro.obs.trace.Span.adopt`)."""
    assert _STATE is not None, "worker used before initialization"
    _shared, ctx, order, build = _STATE
    probes = order[lo:hi]
    if probes.size == 0:  # zero-point shard: nothing to do
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, {}, 0, None
    # Fresh accounting per shard; the cached query structures stay.
    ctx.stage_seconds = {}
    ctx.counters = {}
    with trace("shard", lo=lo, hi=hi) if traced else nullcontext(None) as root:
        block = build(probes=probes).run(ctx)
    # root.seconds is final only once the trace context has closed.
    tree = root.to_dict() if root is not None else None
    return (
        block.p_idx,
        block.q_idx,
        ctx.stage_seconds,
        int(ctx.counters.get("candidates", 0)),
        tree,
    )


def _make_executor(workers: int, spec: Spec, build) -> ProcessPoolExecutor:
    """Pool construction seam (monkeypatched by the crash-safety
    tests)."""
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(spec, build)
    )


def run_sharded(
    build,
    ctx: JoinContext,
    *,
    workers: int | None = None,
    min_shard: int = DEFAULT_MIN_SHARD,
    exec_info: dict | None = None,
) -> CandidateBlock:
    """Run one pipeline over ``ctx``, sharded over a worker pool.

    ``build(probes=None)`` returns a fresh
    :class:`~repro.engine.operators.Pipeline`; it must pickle (a
    module-level function or a ``functools.partial`` of one).  The
    probes of the pipeline's source (``source.probe_side``) are cut
    into Hilbert-ordered shards (:func:`repro.parallel.shards.plan_shards`);
    every worker runs ``build(probes=shard)`` and the coordinator feeds
    the shard results to a fresh pipeline's own sink, so the merged
    result is in the sink's order and byte-identical for every worker
    count.  ``ctx.counters["candidates"]`` receives the shard sum and
    ``ctx.stage_seconds`` the per-stage times **summed over shards**
    (aggregate CPU seconds, which can exceed wall time).

    The pipeline runs in-process on ``ctx`` itself when ``workers`` is
    1, when its source cannot shard, or when the probes are too few to
    amortize a pool (:func:`serial_fallback_threshold`).

    ``exec_info`` (when given) receives how the run actually executed:
    ``workers`` (effective — 1 on every in-process run), ``shards``,
    ``pooled`` and, on the pool path, ``bytes_shipped`` (the
    shared-memory block size).  The planner records these so
    calibration never learns from phantom pools.
    """
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if exec_info is None:
        exec_info = {}
    parr, qarr = ctx.parr, ctx.qarr
    pipeline = build()
    set_attr(pipeline=pipeline.describe())  # what --explain shows
    side = pipeline.source.probe_side
    plan = None
    if workers > 1 and side is not None and len(parr) and len(qarr):
        probe = qarr if side == "q" else parr
        if len(probe) >= serial_fallback_threshold(min_shard):
            plan = plan_shards(
                probe.x, probe.y, workers * SHARDS_PER_WORKER,
                min_shard=min_shard,
            )
    if plan is None or len(plan) <= 1:
        shards = 1 if len(parr) and len(qarr) else 0
        exec_info.update(workers=1, shards=shards, pooled=False)
        return pipeline.run(ctx)

    shared = SharedArrays.create(
        {
            "px": parr.x,
            "py": parr.y,
            "poid": parr.oid,
            "qx": qarr.x,
            "qy": qarr.y,
            "qoid": qarr.oid,
            "order": plan.order,
        }
    )
    bytes_shipped = shared.nbytes
    try:
        workers = min(workers, len(plan))
        with span("pool", workers=workers, shards=len(plan)) as psp:
            traced = psp is not None
            if traced:
                psp.add("bytes-shipped", bytes_shipped)
            ranges = plan.ranges()
            with ExitStack() as stack:
                with span("pool-startup"):
                    pool = stack.enter_context(
                        _make_executor(workers, shared.spec(), build)
                    )
                    # Under fork the executor launches its workers at
                    # the first submit, so the first shard goes out
                    # inside the span to time the launch.
                    futures = [pool.submit(_run_shard, *ranges[0], traced)]
                futures += [
                    pool.submit(_run_shard, lo, hi, traced)
                    for lo, hi in ranges[1:]
                ]
                parts = []
                for (lo, hi), future in zip(ranges, futures):
                    try:
                        parts.append(future.result())
                    except Exception as exc:
                        exc.add_note(f"pool shard [{lo}, {hi}) of {len(plan)}")
                        raise
            if traced:
                for part in parts:
                    if part[4] is not None:
                        psp.adopt(part[4])
    finally:
        shared.destroy()
    exec_info.update(
        workers=workers,
        shards=len(plan),
        pooled=True,
        bytes_shipped=bytes_shipped,
    )

    for p_idx, q_idx, shard_stages, candidates, _tree in parts:
        for key, seconds in shard_stages.items():
            ctx.stage_seconds[key] = ctx.stage_seconds.get(key, 0.0) + seconds
        ctx.counters["candidates"] = (
            ctx.counters.get("candidates", 0) + candidates
        )
        pipeline.sink.collect(ctx, CandidateBlock(p_idx, q_idx))
    return pipeline.sink.finish(ctx)


def parallel_rcj_pair_indices(
    parr: PointArray,
    qarr: PointArray,
    workers: int | None = None,
    k0: int = DEFAULT_K0,
    exclude_same_oid: bool = False,
    min_shard: int = DEFAULT_MIN_SHARD,
    stage_seconds: dict | None = None,
    exec_info: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The sharded parallel counterpart of
    :func:`repro.engine.kernels.rcj_pair_indices`: the bulk RCJ
    pipeline (:func:`repro.engine.families.rcj_pipeline`) through
    :func:`run_sharded`.

    Returns ``(p_index, q_index, candidate_count)`` in canonical pair
    order; the index arrays are byte-identical to the serial engine's
    for every worker count.  ``workers`` defaults to the machine's CPU
    count; ``min_shard``, ``stage_seconds`` and ``exec_info`` are as in
    :func:`run_sharded` (tests lower ``min_shard`` to force multi-shard
    plans on small datasets).
    """
    from repro.engine.families import rcj_pipeline

    ctx = JoinContext(parr, qarr, stage_seconds=stage_seconds)
    result = run_sharded(
        partial(rcj_pipeline, k0=k0, exclude_same_oid=exclude_same_oid),
        ctx,
        workers=workers,
        min_shard=min_shard,
        exec_info=exec_info,
    )
    return result.p_idx, result.q_idx, int(ctx.counters.get("candidates", 0))
