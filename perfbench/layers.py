"""Per-layer metrics of a traced run, measured from outside the program.

Two sources: the benchmark's own timings of its calls into each
layer's public functions (``PointArray.from_points``, the cost model's
``choose_*``, ``RCJPair`` construction), and the span tree every
front-door call already returns on ``report.trace``.  Each request is
filed under a benchmark-side ``request`` span, so one Perfetto export
holds the whole traced run.
"""

from __future__ import annotations

import time
from collections import defaultdict

from scipy.spatial import cKDTree

from repro.core.pairs import RCJPair
from repro.engine.arrays import PointArray
from repro.engine.kernels import DEFAULT_K0, knn_candidate_blocks
from repro.obs.trace import Span, counter_totals, stage_totals
from repro.parallel.pool import SHARDS_PER_WORKER
from repro.parallel.shards import DEFAULT_MIN_SHARD, plan_shards

#: ``name -> unit`` of every per-layer metric, in report order.  A
#: layer a workload does not exercise reports 0.
PER_LAYER = {
    "arrays.from_points_ms": "ms",
    "pairs.materialize_ms": "ms",
    "costmodel.plan_ms": "ms",
    "planner.self_ms": "ms",
    "kernels.candidate_s": "s",
    "kernels.prune_s": "s",
    "kernels.verify_s": "s",
    "kernels.candidates": "count",
    "kernels.verify_yield": "frac",
    "pool.wall_s": "s",
    "pool.startup_ms": "ms",
    "pool.overhead_s": "s",
    "pool.busy_frac": "frac",
    "pool.shard_skew": "ratio",
    "pool.bytes_shipped": "bytes",
    "pool.candidates_vs_serial": "ratio",
    "topk.bands": "count",
    "topk.verified": "count",
    "topk.yield": "frac",
    "topk.clustered_yield": "frac",
    "topk.candidate_ms": "ms",
    "topk.verify_ms": "ms",
    "epsilon.range_ms": "ms",
    "epsilon.collect_ms": "ms",
    "knn.knn_ms": "ms",
    "knn.collect_ms": "ms",
    "kcp.band_ms": "ms",
    "cij.cells_ms": "ms",
    "cij.verify_ms": "ms",
    "cij.verify_yield": "frac",
    "dynamic.kill_ms": "ms",
    "dynamic.probe_ms": "ms",
    "dynamic.verify_ms": "ms",
    "dynamic.rebuild_ms": "ms",
    "dynamic.rebuilds": "count",
    "dynamic.candidates_per_event": "ratio",
    "dynamic.added_per_candidate": "frac",
    "dynamic.tombstone_frac_max": "frac",
    "dynamic.buffer_max": "count",
    "dynamic.read_ms": "ms",
    "obs.trace_overhead_frac": "frac",
    # per-kind latency breakdown of the run's untraced rounds
    "rcj_uniform_s": "s",
    "rcj_clustered_s": "s",
    "rcj_uniform_serial_s": "s",
    "rcj_clustered_serial_s": "s",
    "topk_p50_ms": "ms",
    "topk_clustered_p50_ms": "ms",
    "kcp_p50_ms": "ms",
    "epsilon_p50_ms": "ms",
    "knn_p50_ms": "ms",
    "cij_p50_ms": "ms",
    "query_p90_ms": "ms",
    "updates_per_s": "1/s",
    "batch_p90_ms": "ms",
    "failed_frac": "frac",
}

#: Per-kind latency metrics: ``metric -> (request kind, statistic)``;
#: the ``rcj_*`` joins report the median attempt, failed or not.
KIND_LATENCY = {
    "rcj_uniform_s": ("rcj_uniform", "attempt_s"),
    "rcj_clustered_s": ("rcj_clustered", "attempt_s"),
    "rcj_uniform_serial_s": ("rcj_uniform_serial", "attempt_s"),
    "rcj_clustered_serial_s": ("rcj_clustered_serial", "attempt_s"),
    "topk_p50_ms": ("topk_uniform", "p50_ms"),
    "topk_clustered_p50_ms": ("topk_clustered", "p50_ms"),
    "kcp_p50_ms": ("kcp", "p50_ms"),
    "epsilon_p50_ms": ("epsilon", "p50_ms"),
    "knn_p50_ms": ("knn", "p50_ms"),
    "cij_p50_ms": ("cij", "p50_ms"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_seconds(node: Span) -> float:
    """A span's duration minus the part its children cover."""
    return node.seconds - sum(child.seconds for child in node.children)


def replay_shard_candidates(points_p, points_q, workers: int) -> int:
    """Candidates the pooled RCJ's shards emit, counted in-process:
    the pool's own shard plan and per-shard candidate generation,
    without verification (which is what can exhaust a worker's
    memory, leaving no trace)."""
    parr = PointArray.from_points(points_p)
    qarr = PointArray.from_points(points_q)
    plan = plan_shards(
        qarr.x, qarr.y, workers * SHARDS_PER_WORKER, min_shard=DEFAULT_MIN_SHARD
    )
    tree_p = cKDTree(parr.coords())
    total = 0
    for lo, hi in plan.ranges():
        probes = plan.order[lo:hi]
        sub = PointArray(qarr.x[probes], qarr.y[probes], qarr.oid[probes])
        q_idx, _p_idx = knn_candidate_blocks(parr, sub, k0=DEFAULT_K0, tree_p=tree_p)
        total += len(q_idx)
    return total


class TracedRun:
    """Collects the traced half of a run and derives the layer metrics."""

    def __init__(self, workload: str, **attrs):
        self.root = Span(f"perfbench:{workload}", kind="bench", attrs=attrs)
        self._t0 = time.perf_counter()
        self.requests: list[tuple[str, Span | None, dict]] = []
        self.rounds = 0
        self.extra: dict[str, float] = {}

    def _bench(self, parent: Span, name: str, fn) -> float:
        node = Span(name, kind="bench")
        t0 = time.perf_counter()
        fn()
        node.seconds = time.perf_counter() - t0
        parent.children.append(node)
        return node.seconds

    def _request(self, kind: str, rec) -> Span:
        """The benchmark-side span of one request, as the client timed it."""
        req = Span(kind, kind="request", attrs={"ok": rec.ok})
        req.seconds = rec.seconds
        req.wall -= rec.seconds
        self.root.children.append(req)
        return req

    def observe(self, op, rec, result) -> None:
        """File one traced request (bulk-join / query-session)."""
        req = self._request(op.kind, rec)
        if result is None:
            self.requests.append((op.kind, None, {}))
            return
        bench = {
            "from_points": self._bench(
                req,
                "bench.from_points",
                lambda: [PointArray.from_points(side) for side in op.inputs],
            ),
            "materialize": self._bench(
                req,
                "bench.materialize",
                lambda: [RCJPair(pr.p, pr.q) for pr in result.pairs],
            ),
        }
        if op.plan is not None:
            bench["plan"] = self._bench(req, "bench.plan", op.plan)
        if result.trace is not None:
            req.children.append(result.trace)
        self.requests.append((op.kind, result.trace, bench))

    def observe_batch(self, rec, pairs, batch, dyn) -> None:
        """File one traced fleet batch and its pairs read."""
        req = self._request("batch", rec)
        trace = getattr(dyn, "last_batch_trace", None) if pairs is not None else None
        bench = {}
        if pairs is not None:
            bench["from_points"] = self._bench(
                req,
                "bench.from_points",
                lambda: PointArray.from_points(p for p, _side in batch.inserts),
            )
            bench["materialize"] = self._bench(
                req, "bench.materialize", lambda: [RCJPair(pr.p, pr.q) for pr in pairs]
            )
            bench["read"] = self._bench(req, "bench.read", lambda: dyn.pairs)
            bench["updates"] = len(batch)
        if trace is not None:
            req.children.append(trace)
        self.requests.append(("batch", trace, bench))

    def candidates_vs_serial(self, pair, workers: int) -> float:
        """The pooled RCJ's shard candidates over the serial join's, on
        the pair the traced ``rcj_clustered_serial`` requests joined."""
        serial = self._counters("rcj_clustered_serial")["candidates"]
        per_round = serial / max(self.rounds, 1)
        return _ratio(replay_shard_candidates(*pair, workers), per_round)

    def close(self) -> Span:
        self.root.seconds = time.perf_counter() - self._t0
        return self.root

    # ------------------------------------------------------------------
    # derivations
    # ------------------------------------------------------------------
    def _traces(self, prefix: str = "") -> list[Span]:
        return [
            t for kind, t, _b in self.requests
            if t is not None and kind.startswith(prefix)
        ]

    def _bench_ms(self, key: str) -> float:
        total = sum(b.get(key, 0.0) for _k, _t, b in self.requests)
        return 1000.0 * total / max(self.rounds, 1)

    def _stages(self, prefix: str) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for t in self._traces(prefix):
            for key, seconds in stage_totals(t).items():
                totals[key] += seconds / max(self.rounds, 1)
        return totals

    def _counters(self, prefix: str) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for t in self._traces(prefix):
            for key, n in counter_totals(t).items():
                totals[key] += n
        return totals

    def metrics(self) -> dict[str, float]:
        per_round = max(self.rounds, 1)
        out = dict.fromkeys(PER_LAYER, 0.0)
        out["arrays.from_points_ms"] = self._bench_ms("from_points")
        out["pairs.materialize_ms"] = self._bench_ms("materialize")
        out["costmodel.plan_ms"] = self._bench_ms("plan")
        out["planner.self_ms"] = 1000.0 * sum(
            self_seconds(t) for t in self._traces()
        ) / per_round

        rcj = self._stages("rcj_")
        rcj_n = self._counters("rcj_")
        out["kernels.candidate_s"] = rcj["candidate"]
        out["kernels.prune_s"] = rcj["prune"]
        out["kernels.verify_s"] = rcj["verify"]
        out["kernels.candidates"] = rcj_n["candidates"] / per_round
        out["kernels.verify_yield"] = _ratio(rcj_n["verified"], rcj_n["candidates"])

        pools = [p for t in self._traces() for p in t.find("pool")]
        shard_secs = busy_den = skew = 0.0
        for pool in pools:
            shards = [c for c in pool.children if c.name == "shard"]
            by_pid: dict[int, float] = defaultdict(float)
            for shard in shards:
                by_pid[shard.proc] += shard.seconds
            startup = sum(s.seconds for s in pool.find("pool-startup"))
            out["pool.wall_s"] += pool.seconds / per_round
            out["pool.startup_ms"] += 1000.0 * startup / per_round
            out["pool.overhead_s"] += (
                pool.seconds - max(by_pid.values(), default=0.0)
            ) / per_round
            out["pool.bytes_shipped"] += (
                pool.counters.get("bytes-shipped", 0) / per_round
            )
            shard_secs += sum(by_pid.values())
            busy_den += pool.attrs.get("workers", 1) * pool.seconds
            if shards:
                mean = sum(s.seconds for s in shards) / len(shards)
                skew += _ratio(max(s.seconds for s in shards), mean) / len(pools)
        out["pool.busy_frac"] = _ratio(shard_secs, busy_den)
        out["pool.shard_skew"] = skew

        topk = self._stages("topk_")
        out["topk.candidate_ms"] = 1000.0 * topk["candidate"]
        out["topk.verify_ms"] = 1000.0 * topk["verify"]
        for name, metric in (("uniform", "topk.yield"), ("clustered", "topk.clustered_yield")):
            n = self._counters(f"topk_{name}")
            out[metric] = _ratio(n["pairs"], n["verified"])
            out["topk.bands"] += n["bands"] / per_round
            out["topk.verified"] += n["verified"] / per_round

        for family, stage in (
            ("epsilon", "range"),
            ("epsilon", "collect"),
            ("knn", "knn"),
            ("knn", "collect"),
            ("kcp", "band"),
            ("cij", "cells"),
            ("cij", "verify"),
        ):
            out[f"{family}.{stage}_ms"] = 1000.0 * self._stages(family)[stage]
        cij = self._counters("cij")
        out["cij.verify_yield"] = _ratio(cij["verified"], cij["candidates"])

        batches = self._traces("batch")
        if batches:
            dyn = self._stages("batch")
            for stage in ("kill", "probe", "verify", "rebuild"):
                out[f"dynamic.{stage}_ms"] = 1000.0 * dyn[stage]
            n = self._counters("batch")
            updates = sum(b.get("updates", 0) for _k, _t, b in self.requests)
            out["dynamic.rebuilds"] = n["rebuilds"]
            out["dynamic.candidates_per_event"] = _ratio(n["candidates"], updates)
            out["dynamic.added_per_candidate"] = _ratio(n["added"], n["candidates"])
            resident = self.extra.get("resident", 0)
            out["dynamic.tombstone_frac_max"] = max(
                _ratio(t.attrs.get("tombstones", 0), resident) for t in batches
            )
            out["dynamic.buffer_max"] = max(t.attrs.get("buffered", 0) for t in batches)
            out["dynamic.read_ms"] = self._bench_ms("read")
        out.update((k, v) for k, v in self.extra.items() if k in PER_LAYER)
        return out
