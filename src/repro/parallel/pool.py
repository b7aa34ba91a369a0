"""The sharded executor: fan any shardable pipeline over threads.

Execution shape
---------------
One driver, :func:`run_sharded`, serves every pooled join — the
ε-join and the kNN join alike.  A request is a pipeline *builder*
(``build(probes=None) -> Pipeline``): the coordinator asks it for the
pipeline's probe side, builds the one KD-tree the source queries (over
the other side) once, and runs the shards on a
:class:`~concurrent.futures.ThreadPoolExecutor`.  Every shard is a
range of the Hilbert-ordered probe permutation
(:mod:`repro.parallel.shards`); it runs ``build(probes=...)`` through
``Pipeline.run`` on its own :meth:`JoinContext.view
<repro.engine.operators.JoinContext.view>` — the caller's columns and
that tree, fresh counters — and hands back its surviving pair indices
unordered; the coordinator merges them with the pipeline's own sink,
which orders them once.  The KD-tree queries and the numpy kernels
release the GIL, so the threads overlap without copying a column.

Shards outnumber workers (:data:`SHARDS_PER_WORKER`) so a dense patch
of the plane cannot serialize the join behind one straggler.

Determinism
-----------
Shard probe sets are disjoint, the operators are exact (every shard
returns precisely its probes' true pairs), and the merged result is
re-ordered by the pipeline's sink — so the output is byte-identical
for every worker count, every shard granularity and every task
completion order.  ``candidate_count`` is summed over shards.  A
shard that raises re-raises its exception unchanged but for a note
naming the shard's probe range.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from repro.engine.operators import CandidateBlock, JoinContext
from repro.obs.trace import set_attr, span, stage_timer, trace
from repro.parallel.shards import DEFAULT_MIN_SHARD, plan_shards

#: Shards per worker: enough slack for load balancing across uneven
#: spatial density without drowning in per-task fixed costs.
SHARDS_PER_WORKER = 4


def serial_fallback_threshold(min_shard: int) -> int:
    """Probe count below which the join runs in-process: fewer than two
    useful shards cannot pay for the fan-out.  The threshold scales
    with the ``min_shard`` override so tests can exercise real
    multi-shard runs on small datasets."""
    return 2 * min_shard


#: The in-process fallback threshold at the default shard granularity —
#: the figure the cost-based planner must agree with
#: (:mod:`repro.parallel.costmodel` imports it).
MIN_PARALLEL_PROBES = serial_fallback_threshold(DEFAULT_MIN_SHARD)


def default_workers() -> int:
    """Worker count used when the caller does not pin one."""
    return max(1, os.cpu_count() or 1)


def _run_shard(
    build, ctx: JoinContext, probes: np.ndarray, lo: int, hi: int, traced: bool
):
    """One shard: the request's pipeline restricted to ``probes``, on a
    fresh view of ``ctx``.  The shard's sink hands its rows back
    unordered (:attr:`~repro.engine.operators.Sink.ordered` off): the
    coordinator's sink orders the merged rows once.  Returns
    ``(block, candidates, span)``; with ``traced`` the shard roots its
    own trace on this thread and hands the finished span tree — its
    stage spans included — to the coordinator, which is how pooled runs
    feed the report's stage split and calibration like serial ones."""
    view = ctx.view()
    with trace("shard", lo=lo, hi=hi) if traced else nullcontext(None) as root:
        pipeline = build(probes=probes)
        pipeline.sink.ordered = False
        block = pipeline.run(view)
    return block, int(view.counters.get("candidates", 0)), root


def run_sharded(
    build,
    ctx: JoinContext,
    *,
    workers: int | None = None,
    min_shard: int = DEFAULT_MIN_SHARD,
) -> CandidateBlock:
    """Run one pipeline over ``ctx``, sharded over a thread pool.

    ``build(probes=None)`` returns a fresh
    :class:`~repro.engine.operators.Pipeline`.  The probes of the
    pipeline's source (``source.probe_side``) are cut into
    Hilbert-ordered shards (:func:`repro.parallel.shards.plan_shards`);
    ``min(workers, len(plan))`` threads run ``build(probes=shard)`` and
    the coordinator feeds the shard results to a fresh pipeline's own
    sink, so the merged result is in the sink's order and
    byte-identical for every worker count.
    ``ctx.counters["candidates"]`` receives the shard sum and
    ``ctx.workers`` the thread count that actually ran (1 on every
    in-process run), which the planner reports so calibration never
    learns from phantom pools.  Under a trace the ``pool`` span carries
    the worker and shard counts and every shard's span tree.

    The pipeline runs in-process on ``ctx`` itself when ``workers`` is
    1, when its source cannot shard, or when the probes are too few to
    split (:func:`serial_fallback_threshold`).
    """
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
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
        ctx.workers = 1
        return pipeline.run(ctx)

    workers = min(workers, len(plan))
    ranges = plan.ranges()
    with span("pool", workers=workers, shards=len(plan)) as psp:
        traced = psp is not None
        # The source queries the tree over the side it does not probe:
        # built once here, shared by every shard's view.
        with stage_timer(pipeline.source.name):
            if side == "q":
                ctx.tree_p()
            else:
                ctx.tree_q()
        parts = []
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _run_shard, build, ctx, plan.order[lo:hi], lo, hi, traced
                )
                for lo, hi in ranges
            ]
            for (lo, hi), future in zip(ranges, futures):
                try:
                    parts.append(future.result())
                except Exception as exc:
                    pool.shutdown(cancel_futures=True)
                    exc.add_note(f"pool shard [{lo}, {hi}) of {len(plan)}")
                    raise
        if traced:
            psp.children.extend(root for *_, root in parts if root is not None)
    ctx.workers = workers

    for block, candidates, _root in parts:
        ctx.counters["candidates"] = (
            ctx.counters.get("candidates", 0) + candidates
        )
        pipeline.sink.collect(ctx, CandidateBlock(block.p_idx, block.q_idx))
    return pipeline.sink.finish(ctx)
