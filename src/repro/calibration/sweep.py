"""The bounded seed sweep: force every engine once, observe, refit.

Organic traffic only records the engine the planner *chose*, so a fresh
host would never observe the roads not taken (a 1-core container will
happily keep choosing ``array-parallel`` forever if nothing ever
measures how slow its pools are).  The sweep breaks that loop: it runs
one bounded synthetic workload through **every** engine — the serial
bulk RCJ (it does not shard), both top-k routes, the shardable family
pipelines serial and pooled — and records each run with the same
estimates the planner would have used, so the refit sees the full
decision space.

``python -m repro calibrate`` is the front door: sweep, refit, persist
the per-host profile.  The smoke variant (``--smoke``) bounds the whole
thing to a few seconds for CI.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

#: Neighbours per ε-probe the sweep's epsilon radius targets.
_EPS_TARGET_PER_PROBE = 8.0

#: k of the sweep's kNN-family runs.
_SWEEP_KNN_K = 8

#: k values of the sweep's top-k runs (one in the R-tree heap's
#: favoured regime, one in the streamed array engine's).
_SWEEP_TOPK_KS = (16, 128)


def _sweep_eps(points_p) -> float:
    """An ε giving roughly :data:`_EPS_TARGET_PER_PROBE` candidates per
    probe on this dataset (selective enough to be realistic, dense
    enough to measure)."""
    xs = np.array([p.x for p in points_p])
    ys = np.array([p.y for p in points_p])
    area = float(np.ptp(xs)) * float(np.ptp(ys))
    if not (area > 0.0 and np.isfinite(area)) or not len(points_p):
        return 1.0
    return float(
        np.sqrt(_EPS_TARGET_PER_PROBE * area / (np.pi * len(points_p)))
    )


def _worker_counts(max_workers: int | None) -> tuple[int, ...]:
    """Pool sizes the sweep measures.

    Always includes 2 — even (especially) on a 1-core host, where the
    measured 2-worker run is exactly the evidence that teaches the
    model pools don't pay here.
    """
    cpu = os.cpu_count() or 1
    counts = {2, max(2, cpu)}
    if max_workers is not None:
        counts = {min(c, max(max_workers, 2)) for c in counts}
        counts.add(max(max_workers, 2))
    return tuple(sorted(counts))


#: Batch sizes of the sweep's dynamic-maintenance series.
_SWEEP_DYNAMIC_BATCHES = (16, 64)

#: Update batches replayed per (backend, batch size) dynamic series.
_SWEEP_DYNAMIC_ROUNDS = 2


def _sweep_dynamic(size: int, seed: int, say) -> int:
    """Replay one bounded moving-objects stream through *both* dynamic
    backends, letting their own calibration hooks record each batch
    (``kind="dynamic"`` observations — what makes
    :func:`repro.parallel.costmodel.choose_dynamic_backend`
    profile-aware)."""
    from repro.core.dynamic import DynamicRCJ
    from repro.engine.streaming import DynamicArrayRCJ
    from repro.workloads.moving import FleetSimulator

    resident = max(192, min(size, 1024) // 2)
    recorded = 0
    for batch_size in _SWEEP_DYNAMIC_BATCHES:
        sim = FleetSimulator(
            fleet=resident, depots=resident, seed=seed + batch_size
        )
        points_p, points_q = sim.initial_points()
        batches = []
        stream = sim.batch_stream(batch_size, ticks=10_000)
        while len(batches) < _SWEEP_DYNAMIC_ROUNDS:
            batches.append(next(stream))
        for backend_cls, engine in (
            (DynamicArrayRCJ, "array"),
            (DynamicRCJ, "obj"),
        ):
            dyn = backend_cls(points_p, points_q)
            dyn.record_calibration = True
            for batch in batches:
                dyn.apply_batch(batch.inserts, batch.deletes)
                recorded += 1
            say(
                f"dynamic/{engine} n={2 * resident} batch={batch_size}: "
                f"{len(batches)} batches measured"
            )
    return recorded


def run_calibration_sweep(
    n: int = 4000,
    *,
    rounds: int = 2,
    max_workers: int | None = None,
    include_topk: bool = True,
    include_families: bool = True,
    include_dynamic: bool = True,
    seed: int = 211,
    echo: Callable[[str], None] | None = None,
) -> int:
    """Run the forced-engine sweep, recording one observation per run.

    Parameters
    ----------
    n:
        Largest dataset cardinality (a half-size round runs too, so the
        fits see two candidate volumes per engine and can separate base
        cost from per-candidate cost).
    rounds:
        Repetitions with distinct seeds; more rounds average out
        scheduler noise at linear cost.
    max_workers:
        Cap on the pool sizes measured (default: up to the machine's
        cores, always at least one 2-worker series).
    include_topk, include_families, include_dynamic:
        Gate the ordered-browsing, family-join and dynamic-maintenance
        series (the bulk-join series always runs — it anchors the
        shared serial constants).
    seed:
        Base RNG seed; each round offsets it so repeated sweeps
        accumulate fresh, non-duplicate observations.

    Returns the number of observations recorded.
    """
    from repro.calibration.observations import record_observation
    from repro.datasets.fixtures import uniform_pair
    from repro.engine.planner import run_join, run_topk
    from repro.parallel.costmodel import (
        estimate_bytes,
        estimate_candidates,
        estimate_family_candidates,
        estimate_topk_candidates,
        sample_density_factor,
    )

    def say(message: str) -> None:
        if echo is not None:
            echo(message)

    def record(kind, family, engine, workers, parr, qarr, est, report):
        record_observation(
            kind=kind,
            family=family,
            engine=engine,
            workers=workers,
            n_p=len(parr),
            n_q=len(qarr),
            density_factor=density,
            est_candidates=est,
            est_bytes=estimate_bytes(len(parr), len(qarr), workers, est),
            stage_seconds=report.stage_seconds,
            total_seconds=report.cpu_seconds,
        )

    workers_series = _worker_counts(max_workers)
    sizes = sorted({max(512, n // 2), max(512, n)})
    recorded = 0

    for round_no in range(max(rounds, 1)):
        for size in sizes:
            points_p, points_q = uniform_pair(
                size, size + size // 4, seed=seed + 13 * round_no
            )
            density = sample_density_factor(points_p, points_q)
            # A shard floor below |Q|/(2*workers) keeps the pools real
            # at sweep sizes instead of silently falling back serial.
            min_shard = max(
                64, len(points_q) // (2 * max(workers_series))
            )

            # -- bulk RCJ: serial (its triangulation is global) --------
            est = estimate_candidates(len(points_p), len(points_q), density)
            report = run_join(points_p, points_q, engine="array")
            record("join", None, "array", 1, points_p, points_q, est, report)
            recorded += 1
            say(
                f"join/array n={size}: {report.cpu_seconds:.3f}s "
                f"({report.result_count} pairs)"
            )

            # -- ordered browsing: both routes -------------------------
            if include_topk:
                for k in _SWEEP_TOPK_KS:
                    est_topk = estimate_topk_candidates(
                        k, density, len(points_p), len(points_q)
                    )
                    for engine in ("array", "obj"):
                        report = run_topk(
                            points_p, points_q, k, engine=engine
                        )
                        record(
                            "topk", None, engine, 1,
                            points_p, points_q, est_topk, report,
                        )
                        recorded += 1
                        say(
                            f"topk/{engine} k={k} n={size}: "
                            f"{report.cpu_seconds:.3f}s"
                        )

            # -- shardable families: serial + one pool size ------------
            if include_families:
                family_params = (
                    ("epsilon", {"eps": _sweep_eps(points_p)}),
                    ("knn", {"k": _SWEEP_KNN_K}),
                )
                for family, params in family_params:
                    est_fam, _probes = estimate_family_candidates(
                        family,
                        points_p,
                        points_q,
                        density=density,
                        **params,
                    )
                    report = run_join(
                        points_p, points_q, family=family,
                        engine="array", **params,
                    )
                    record(
                        "family", family, "array", 1,
                        points_p, points_q, est_fam, report,
                    )
                    recorded += 1
                    pool_w = workers_series[0]
                    report = run_join(
                        points_p, points_q, family=family,
                        engine="array-parallel",
                        workers=pool_w,
                        min_shard=min_shard,
                        **params,
                    )
                    record(
                        "family", family, "array-parallel", pool_w,
                        points_p, points_q, est_fam, report,
                    )
                    recorded += 1
                    say(
                        f"family:{family} n={size}: serial + pool@"
                        f"{pool_w} measured"
                    )

            # -- dynamic maintenance: both backends, batched -----------
            if include_dynamic:
                recorded += _sweep_dynamic(
                    size, seed + 13 * round_no, say
                )
    return recorded
