"""Spatial shard planning for the parallel engine.

The probe set is the embarrassingly parallel axis of a shardable
pipeline (the ε-join's ``Q``, the kNN join's ``P``): every probe's
candidate generation reads the shared structures but writes only its
own pairs.  The shard layer turns the probes into contiguous ranges of
a **Hilbert-ordered** permutation (:mod:`repro.geometry.hilbert`), so
each shard is a spatially coherent patch of the plane rather than an
arbitrary slice of input order — its KD-tree probes touch neighbouring
leaves, and per-shard work tracks area rather than input shuffling.

A :class:`ShardPlan` is deterministic: same probes and shard count, same
permutation and boundaries, on every run and platform.  Pair output
therefore cannot depend on scheduling — workers may finish in any
order, the merge step reorders canonically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.hilbert import HilbertMapper
from repro.geometry.rect import Rect

#: Hilbert curve order of the shard sort.  2^12 cells per side resolves
#: shard boundaries far below any useful shard granularity while keeping
#: the key transform to 12 vectorized passes.
SHARD_CURVE_ORDER = 12

#: Probes below which an extra shard is not worth its fixed overhead
#: (sub-array construction, task dispatch, result merge).
DEFAULT_MIN_SHARD = 1024


def hilbert_shard_keys(
    x: np.ndarray, y: np.ndarray, order: int = SHARD_CURVE_ORDER
) -> np.ndarray:
    """Hilbert keys of coordinate arrays over their own bounding box.

    A thin wrapper over :meth:`HilbertMapper.keys_batch` — one home for
    the clamped-cell convention, including the collapse of degenerate
    extents (all probes on one vertical/horizontal line, or one
    location) to cell 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0:
        return np.empty(0, dtype=np.int64)
    bounds = Rect(
        float(x.min()), float(y.min()), float(x.max()), float(y.max())
    )
    return HilbertMapper(bounds, order).keys_batch(x, y)


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of the probe set into spatial ranges.

    Attributes
    ----------
    order:
        Probe-index permutation, sorted by Hilbert key (ties broken by
        probe index — the sort is stable).
    bounds:
        ``n_shards + 1`` offsets into ``order``; shard ``i`` is
        ``order[bounds[i]:bounds[i + 1]]``.
    """

    order: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def ranges(self) -> list[tuple[int, int]]:
        """The ``(lo, hi)`` offset pairs of all shards."""
        return [
            (int(self.bounds[i]), int(self.bounds[i + 1]))
            for i in range(len(self))
        ]

    def shard(self, i: int) -> np.ndarray:
        """The probe indices of shard ``i``."""
        return self.order[self.bounds[i] : self.bounds[i + 1]]


def plan_shards(
    x: np.ndarray,
    y: np.ndarray,
    n_shards: int,
    min_shard: int = DEFAULT_MIN_SHARD,
) -> ShardPlan:
    """Partition probes at coordinates ``(x, y)`` into spatial shards.

    ``n_shards`` is a request: it is clamped so that no shard falls
    below ``min_shard`` probes (tiny shards cost more in fixed overhead
    than their work is worth) and never exceeds the probe count, so a
    plan contains no empty shard.  Zero probes produce a zero-shard
    plan, which callers must treat as "nothing to do" rather than
    handing it to a pool.
    """
    n = len(x)
    if n == 0:
        return ShardPlan(
            np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        )
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    n_shards = max(1, min(n_shards, n // max(min_shard, 1), n))
    keys = hilbert_shard_keys(x, y)
    order = np.argsort(keys, kind="stable").astype(np.int64)
    bounds = np.linspace(0, n, n_shards + 1).astype(np.int64)
    return ShardPlan(order, bounds)
