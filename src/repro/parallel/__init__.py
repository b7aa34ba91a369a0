"""Sharded parallel execution subsystem for the RCJ.

The vectorized array engine (:mod:`repro.engine`) made the join fast on
one core; this package makes it use all of them, and picks the right
engine automatically:

- :mod:`repro.parallel.shards` — Hilbert-order spatial shards of the
  probe set (deterministic, spatially coherent ranges);
- :mod:`repro.parallel.pool` — one driver
  (:func:`~repro.parallel.pool.run_sharded`) running any shardable
  engine pipeline per shard on a thread pool over the caller's own
  columns — the ε-join and the kNN join (the RCJ's candidates come
  from one global triangulation, so it runs in-process) — and merging
  shard results with the pipeline's own sink;
- :mod:`repro.parallel.costmodel` — the cost-based planner behind
  every ``engine="auto"`` run (:func:`~repro.parallel.costmodel.plan_join`):
  chooses ``array-parallel`` / ``array`` / ``obj`` (``pointwise`` for
  the other families) from dataset sizes, a density sample and the
  memory budget, and explains itself (:class:`ExecutionPlan`).

The parallel engine's pair output is byte-identical to the serial
engines for every worker count — the parallel equivalence suite pins
it.
"""

from repro.parallel.costmodel import (
    ExecutionPlan,
    choose_plan,
    memory_budget_bytes,
    sample_density_factor,
)
from repro.parallel.pool import default_workers
from repro.parallel.shards import ShardPlan, hilbert_shard_keys, plan_shards

__all__ = [
    "ExecutionPlan",
    "ShardPlan",
    "choose_plan",
    "default_workers",
    "hilbert_shard_keys",
    "memory_budget_bytes",
    "plan_shards",
    "sample_density_factor",
]
