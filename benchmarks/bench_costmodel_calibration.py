"""Calibration bench — the fitted planner must pick the measured winner.

Closes the loop ``BENCH_parallel.json`` opened: that artifact records a
1-core host where every parallel run *lost* to serial while the static
planner kept predicting otherwise.  This bench runs the whole
self-calibration cycle on the current host —

1. forced-engine seed sweep (:mod:`repro.calibration.sweep`) into a
   bench-private store,
2. least-squares refit into a persisted per-host profile,
3. fresh, larger datasets measured under every viable engine of a
   pooled join (the kNN join, ``k = 8``; the bulk RCJ's triangulation
   is global, so it never pools),
4. ``choose_family_plan`` consulted with the profile loaded —

and asserts the calibrated decision agrees with the empirical ranking:
on a single-core host the planner must *never* pick ``array-parallel``
(the recorded mispick regime, now a regression test), and on any host
the picked engine's measured wall must be within tolerance of the
fastest.  A canned profile shaped like the recorded 1-core data pins
the decision deterministically, independent of this run's noise.

Results land in ``benchmarks/results/BENCH_calibration.json``.
"""

from __future__ import annotations

import os
import time

from repro.calibration.observations import reset_calibration
from repro.calibration.profile import (
    CalibrationProfile,
    EngineModel,
    host_fingerprint,
    save_profile,
)
from repro.calibration.refit import refit_profile
from repro.calibration.sweep import _SWEEP_KNN_K, run_calibration_sweep
from repro.engine.planner import run_join
from repro.evaluation.scaling import write_json
from repro.parallel.costmodel import choose_family_plan

#: The calibrated pooled workload and its parameter.
WORKLOAD = "family:knn"
KNN = {"family": "knn", "k": _SWEEP_KNN_K}

from benchmarks.conftest import RESULTS_DIR, emit

#: Paper-class sweep cardinality, divided by REPRO_SCALE — floored so
#: the verification datasets clear the pool's serial-fallback threshold
#: and the parallel plan is genuinely on the table.
SWEEP_PAPER_N = 100_000
MIN_SWEEP_N = 1600

#: Multicore tolerance: the calibrated pick's measured wall may trail
#: the empirical winner by this factor (scheduler noise at bench
#: scale); on one core the engine assertion is exact instead.
PICK_TOLERANCE = 1.3


def _measure_engines(points_p, points_q, worker_counts, min_shard):
    """Measured wall seconds of every viable kNN-join engine."""
    walls: dict[str, float] = {}
    report = run_join(points_p, points_q, engine="array", **KNN)
    walls["array"] = report.cpu_seconds
    for workers in worker_counts:
        report = run_join(
            points_p,
            points_q,
            engine="array-parallel",
            workers=workers,
            min_shard=min_shard,
            **KNN,
        )
        walls[f"array-parallel@{workers}"] = report.cpu_seconds
    return walls


def _recorded_1core_profile() -> CalibrationProfile:
    """A profile shaped like the recorded 1-core scaling data: the
    parallel lines dominate serial in base *and* slope at every worker
    count, as ``BENCH_parallel.json`` measured on the CI box."""
    host = dict(host_fingerprint())
    host["cpu_count"] = 1
    return CalibrationProfile(
        host=host,
        fitted_at="recorded",
        n_observations=12,
        models={
            f"{WORKLOAD}/array": EngineModel(0.05, 2.0e-6, 4),
            f"{WORKLOAD}/array-parallel@2": EngineModel(0.15, 4.5e-6, 4),
            f"{WORKLOAD}/array-parallel@4": EngineModel(0.25, 5.0e-6, 4),
        },
    )


def test_costmodel_calibration(benchmark, scale, datasets, monkeypatch):
    calib_dir = os.path.join(RESULTS_DIR, "calibration-store")
    monkeypatch.setenv("REPRO_CALIBRATION_DIR", calib_dir)
    monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
    reset_calibration()

    n = max(scale.synthetic_n(SWEEP_PAPER_N), MIN_SWEEP_N)
    cpus = os.cpu_count() or 1

    def cycle():
        recorded = run_calibration_sweep(
            n, rounds=2, include_topk=False, include_dynamic=False
        )
        profile = refit_profile()
        path = save_profile(profile)
        return recorded, profile, path

    recorded, profile, profile_path = benchmark.pedantic(
        cycle, rounds=1, iterations=1
    )

    # Verification workload: fresh seed, twice the sweep's size, so the
    # planner extrapolates rather than memorizes.
    points_p, points_q = datasets.uniform_pair(2 * n, 2 * n, seed=97)
    worker_counts = [
        w for w in profile.parallel_worker_counts(WORKLOAD) if w <= cpus * 2
    ]
    min_shard = max(64, (2 * n) // 16)
    t0 = time.perf_counter()
    walls = _measure_engines(points_p, points_q, worker_counts, min_shard)
    measure_seconds = time.perf_counter() - t0

    plan = choose_family_plan(
        "knn", points_p, points_q, k=_SWEEP_KNN_K,
        workers=max(worker_counts or [2]),
    )
    fastest = min(walls, key=walls.get)
    picked = (
        plan.engine
        if plan.engine != "array-parallel"
        else f"array-parallel@{plan.workers}"
    )

    # The recorded-regime regression: a profile fitted on 1-core data
    # must steer every plan away from the pool, at every size.
    canned = _recorded_1core_profile()
    save_profile(canned, profile_path)
    canned_picks = {}
    for size in (n, 4 * n, 16 * n, 64 * n):
        fake_p, fake_q = datasets.uniform_pair(
            min(size, 4 * n), min(size, 4 * n), seed=3
        )
        canned_plan = choose_family_plan(
            "knn", _FakeBig(fake_p, size), _FakeBig(fake_q, size),
            k=_SWEEP_KNN_K, workers=4,
        )
        canned_picks[size] = canned_plan.engine
    save_profile(profile, profile_path)  # restore the fitted one

    predicted = (
        "-" if plan.predicted_seconds is None
        else f"{plan.predicted_seconds:.3f}s"
    )
    lines = [
        f"Calibrated kNN-join planning (|P| = |Q| = {2 * n}, {cpus} cores)",
        f"  sweep: {recorded} observations, profile {profile_path}",
        f"  measured: "
        + ", ".join(f"{e}={s:.3f}s" for e, s in sorted(walls.items())),
        f"  calibrated pick: {picked} (predicted {predicted}), "
        f"empirical fastest: {fastest}",
        f"  recorded-1core regression picks: "
        + ", ".join(f"n={k}: {v}" for k, v in canned_picks.items()),
    ]
    emit("costmodel_calibration", "\n".join(lines))
    write_json(
        os.path.join(RESULTS_DIR, "BENCH_calibration.json"),
        {
            "host": profile.host,
            "cpu_count": cpus,
            "sweep_n": n,
            "observations": recorded,
            "measured_walls": {k: round(v, 4) for k, v in walls.items()},
            "calibrated_pick": picked,
            "predicted_seconds": plan.predicted_seconds,
            "empirical_fastest": fastest,
            "recorded_1core_picks": {
                str(k): v for k, v in canned_picks.items()
            },
            "measure_seconds": round(measure_seconds, 3),
        },
    )

    # The calibrated branch actually engaged.
    assert plan.predicted_seconds is not None, (
        "plan was made by static thresholds despite a fitted profile"
    )
    assert any("calibrated" in r for r in plan.reasons)

    # The pick agrees with the measurements.
    if cpus == 1:
        # The exact regression the observation log exists to fix: on
        # one core the pool can only lose, and the fitted planner must
        # know it.
        assert plan.engine != "array-parallel", (
            f"calibrated planner picked {picked} on a 1-core host "
            f"(measured: {walls})"
        )
        assert picked == fastest, (
            f"calibrated pick {picked} but {fastest} measured fastest "
            f"({walls})"
        )
    else:
        assert walls[picked] <= walls[fastest] * PICK_TOLERANCE, (
            f"calibrated pick {picked} ({walls[picked]:.3f}s) trails the "
            f"empirical winner {fastest} ({walls[fastest]:.3f}s) beyond "
            f"{PICK_TOLERANCE}x"
        )

    # The canned 1-core profile never yields a parallel plan.
    assert all(v != "array-parallel" for v in canned_picks.values()), (
        f"1-core-fitted profile still planned the pool: {canned_picks}"
    )


class _FakeBig:
    """Length-inflated view of a real pointset: the planner reads
    ``len()`` and a strided coordinate sample, so a small dataset can
    impersonate a paper-scale one without materializing it."""

    def __init__(self, points, n: int):
        self._points = list(points)
        self._n = max(n, len(self._points))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        return self._points[index % len(self._points)]
