"""Least-squares refit: observations -> per-host cost profile.

Each (workload, engine[, worker count]) group gets an independent
non-negative linear fit ``seconds = base + per_candidate * est``:

- With two or more observations spanning distinct candidate volumes,
  an ordinary least-squares solve of ``[1, est]``; negative solutions
  are clamped to the physically meaningful half-space (a negative
  slope becomes a flat fit at the mean, a negative intercept a
  through-origin fit).
- With a single observation (or zero spread), a through-origin ratio —
  one measured run is a rough constant, but strictly better than a
  guessed one.

Parallel groups are fitted **per observed worker count** (no assumption
that work divides by ``w``): the fitted line at ``w = 2`` on a 1-core
host sits strictly above the serial line in both coefficients, which is
precisely what makes the calibrated planner stop planning
``array-parallel`` there.

Per-stage constants (seconds per estimated candidate for the
``candidate`` / ``prune`` / ``verify`` stages) are fitted the same way
from the recorded ``stage_seconds`` and stored as pseudo-engine models
under ``"<workload>/stage:<name>"`` — they don't drive engine choice
(total seconds do) but make ``--explain`` and the bench artifact
diagnosable stage by stage.
"""

from __future__ import annotations

import time

import numpy as np

from repro.calibration.observations import (
    host_fingerprint,
    load_observations,
)
from repro.calibration.profile import CalibrationProfile, EngineModel

#: Stages whose per-candidate constants are fitted individually
#: (the join/topk pipeline stages plus the dynamic batch path's
#: kill/probe/rebuild split).
STAGE_NAMES = ("candidate", "prune", "verify", "kill", "probe", "rebuild")


def _fit_linear(est: np.ndarray, secs: np.ndarray) -> tuple[float, float]:
    """Non-negative ``(base, per_candidate)`` least-squares fit."""
    est = np.asarray(est, dtype=np.float64)
    secs = np.asarray(secs, dtype=np.float64)
    sum_sq = float(np.dot(est, est))
    if len(est) >= 2 and float(np.ptp(est)) > 0.0:
        design = np.column_stack((np.ones_like(est), est))
        (base, slope), *_ = np.linalg.lstsq(design, secs, rcond=None)
        base, slope = float(base), float(slope)
        if slope < 0.0:
            # Work not explained by candidate volume: flat model.
            return float(secs.mean()), 0.0
        if base < 0.0:
            # Through-origin refit keeps predictions positive.
            return 0.0, float(np.dot(est, secs) / sum_sq) if sum_sq else 0.0
        return base, slope
    # Degenerate group: a single ratio (or a flat constant when the
    # estimate itself is zero, e.g. empty-input observations).
    if sum_sq > 0.0:
        return 0.0, float(np.dot(est, secs) / sum_sq)
    return float(secs.mean()) if len(secs) else 0.0, 0.0


def _engine_label(engine: str, workers: int) -> str:
    """Model key suffix of one observation's execution shape."""
    if engine == "pointwise":
        engine = "obj"
    if engine == "array-parallel":
        return f"array-parallel@{max(int(workers), 1)}"
    return engine


def refit_profile(
    observations: list[dict] | None = None,
    *,
    host_filter: bool = True,
) -> CalibrationProfile:
    """Fit every model the observations support; raises ``ValueError``
    when no usable observation exists.

    ``host_filter`` keeps only observations whose host key matches the
    executing host (a store shared across machine classes must not blur
    their constants together); pass ``False`` to refit someone else's
    recorded store deliberately.
    """
    if observations is None:
        observations = load_observations()
    host = host_fingerprint()
    if host_filter:
        observations = [
            obs
            for obs in observations
            if (obs.get("host") or {}).get("key") in (None, host["key"])
        ]
    usable = [
        obs
        for obs in observations
        if float(obs.get("total_seconds", 0.0)) > 0.0
        and obs.get("engine")
        and obs.get("workload")
    ]
    if not usable:
        raise ValueError(
            "no usable calibration observations for this host; run "
            "'python -m repro calibrate' (or any planned join) first"
        )

    groups: dict[str, list[dict]] = {}
    for obs in usable:
        workload = str(obs["workload"])
        label = _engine_label(str(obs["engine"]), int(obs.get("workers", 1)))
        groups.setdefault(f"{workload}/{label}", []).append(obs)

    models: dict[str, EngineModel] = {}
    for key, members in groups.items():
        est = np.array(
            [int(m.get("est_candidates", 0)) for m in members], np.float64
        )
        secs = np.array(
            [float(m["total_seconds"]) for m in members], np.float64
        )
        base, per_candidate = _fit_linear(est, secs)
        models[key] = EngineModel(
            base_seconds=base,
            per_candidate_seconds=per_candidate,
            n_obs=len(members),
        )

    # Per-stage constants from the serial measured stage times.
    stage_samples: dict[str, list[tuple[int, float]]] = {}
    for obs in usable:
        if obs.get("engine") not in ("array", "array-parallel"):
            continue
        for stage, secs in (obs.get("stage_seconds") or {}).items():
            if stage not in STAGE_NAMES:
                continue
            stage_samples.setdefault(
                f"{obs['workload']}/stage:{stage}", []
            ).append((int(obs.get("est_candidates", 0)), float(secs)))
    for key, samples in stage_samples.items():
        est = np.array([s[0] for s in samples], np.float64)
        secs = np.array([s[1] for s in samples], np.float64)
        base, per_candidate = _fit_linear(est, secs)
        models[key] = EngineModel(
            base_seconds=base,
            per_candidate_seconds=per_candidate,
            n_obs=len(samples),
        )

    return CalibrationProfile(
        host=host,
        fitted_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        n_observations=len(usable),
        models=models,
    )
