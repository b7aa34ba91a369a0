"""The fitted per-host cost profile the planner loads.

A profile is a set of first-order *time* models fitted from measured
runs (:mod:`repro.calibration.refit`), keyed by workload and engine:

``"join/array"``
    Serial vectorized bulk RCJ: ``seconds = base + per_candidate * est``.
``"join/array-parallel@4"``
    The sharded pool at a specific observed worker count, fitted from
    runs at that count.  Keeping one linear model **per worker count**
    (instead of assuming work divides by ``w``) is what lets a 1-core
    host learn that its "parallel" line sits strictly above the serial
    one — the exact regime ``BENCH_parallel.json`` recorded.
``"topk/array"`` / ``"topk/obj"``, ``"family:epsilon/array"``, …
    The same shape for the other planned workloads.

Profiles persist as ``profile-<host key>.json`` next to the
observation store, so every host class keeps its own constants.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.calibration.observations import (
    calibration_dir,
    calibration_enabled,
    host_fingerprint,
)

#: Profile document schema version.
PROFILE_VERSION = 1


@dataclass(frozen=True)
class EngineModel:
    """``seconds = base + per_candidate * est_candidates`` for one
    (workload, engine[, worker count]) group."""

    base_seconds: float
    per_candidate_seconds: float
    n_obs: int

    def predict(self, est_candidates: int) -> float:
        return self.base_seconds + self.per_candidate_seconds * max(
            est_candidates, 0
        )


@dataclass(frozen=True)
class CalibrationProfile:
    """Every fitted constant of one host, ready for plan prediction."""

    host: dict
    fitted_at: str
    n_observations: int
    models: dict[str, EngineModel] = field(default_factory=dict)

    # -- prediction ----------------------------------------------------

    def model_for(
        self, workload: str, engine: str, workers: int = 1
    ) -> EngineModel | None:
        """The fitted model of one plan shape, or None if never
        observed."""
        if engine == "array-parallel":
            return self.models.get(f"{workload}/array-parallel@{workers}")
        if engine == "pointwise":
            engine = "obj"
        return self.models.get(f"{workload}/{engine}")

    def predict_seconds(
        self, workload: str, engine: str, workers: int, est_candidates: int
    ) -> float | None:
        """Predicted wall seconds of one viable plan, or None when the
        profile holds no model for it (the planner then falls back to
        its static thresholds for that decision)."""
        model = self.model_for(workload, engine, workers)
        if model is None:
            return None
        return model.predict(est_candidates)

    def parallel_worker_counts(self, workload: str) -> tuple[int, ...]:
        """Worker counts the profile can predict for one workload,
        ascending."""
        prefix = f"{workload}/array-parallel@"
        counts = []
        for key in self.models:
            if key.startswith(prefix):
                try:
                    counts.append(int(key[len(prefix):]))
                except ValueError:
                    continue
        return tuple(sorted(counts))

    # -- presentation --------------------------------------------------

    def constants_line(self, workload: str) -> str:
        """One-line summary of the loaded constants for a workload
        (quoted into ``ExecutionPlan.reasons`` / ``--explain``)."""
        parts = []
        for key in sorted(self.models):
            if key.split("/", 1)[0] != workload:
                continue
            model = self.models[key]
            parts.append(
                f"{key.split('/', 1)[1]}: "
                f"{model.per_candidate_seconds:.3e}s/cand"
                f"+{model.base_seconds * 1000.0:.1f}ms"
            )
        return "; ".join(parts) if parts else "no fitted constants"

    def describe(self) -> str:
        """Human-readable profile summary (the CLI's ``calibrate``
        output)."""
        lines = [
            f"calibration profile for {self.host.get('key', '?')}"
            f" (fitted {self.fitted_at},"
            f" {self.n_observations} observations)",
            f"  cpu count        {self.host.get('cpu_count', '?')}",
            f"  microbench       "
            f"{self.host.get('microbench_seconds', float('nan')) * 1000.0:.3f} ms",
        ]
        for key in sorted(self.models):
            model = self.models[key]
            lines.append(
                f"  {key:<28} {model.per_candidate_seconds:.3e} s/cand "
                f"+ {model.base_seconds * 1000.0:7.2f} ms base "
                f"({model.n_obs} obs)"
            )
        return "\n".join(lines)

    # -- (de)serialization ---------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": PROFILE_VERSION,
            "host": self.host,
            "fitted_at": self.fitted_at,
            "n_observations": self.n_observations,
            "models": {
                key: {
                    "base_seconds": model.base_seconds,
                    "per_candidate_seconds": model.per_candidate_seconds,
                    "n_obs": model.n_obs,
                }
                for key, model in self.models.items()
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CalibrationProfile":
        # Profiles written before the thread pool also carry a "pools"
        # entry (process-startup constants); it is ignored.
        models = {
            key: EngineModel(
                base_seconds=float(entry["base_seconds"]),
                per_candidate_seconds=float(entry["per_candidate_seconds"]),
                n_obs=int(entry.get("n_obs", 0)),
            )
            for key, entry in (doc.get("models") or {}).items()
        }
        return cls(
            host=dict(doc.get("host") or {}),
            fitted_at=str(doc.get("fitted_at", "")),
            n_observations=int(doc.get("n_observations", 0)),
            models=models,
        )


def profile_path(host_key: str | None = None) -> str:
    """Path of the persisted profile for one host class (default: the
    executing host's)."""
    if host_key is None:
        host_key = host_fingerprint()["key"]
    return os.path.join(calibration_dir(), f"profile-{host_key}.json")


def save_profile(
    profile: CalibrationProfile, path: str | None = None
) -> str:
    """Persist a fitted profile (stable key order); returns the path."""
    if path is None:
        path = profile_path(profile.host.get("key"))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(profile.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def load_profile(path: str | None = None) -> CalibrationProfile | None:
    """The persisted profile, or None when absent/corrupt/disabled."""
    if not calibration_enabled():
        return None
    if path is None:
        path = profile_path()
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    try:
        return CalibrationProfile.from_dict(doc)
    except (KeyError, TypeError, ValueError):
        return None


#: Single-entry profile cache: ``(path, mtime_ns) -> profile-or-None``.
#: Keyed on the resolved path *and* its mtime so tests that repoint
#: ``REPRO_CALIBRATION_DIR`` or rewrite the profile are always seen.
_PROFILE_CACHE: tuple[str, int | None, CalibrationProfile | None] | None = None


def cached_profile() -> CalibrationProfile | None:
    """The executing host's profile with an mtime-validated cache.

    The planner calls this once per plan; re-parsing a small JSON file
    on every join would be harmless, but the cache makes the planner's
    overhead independent of plan volume (the serving workloads issue
    thousands of plans per second).
    """
    global _PROFILE_CACHE
    if not calibration_enabled():
        return None
    path = profile_path()
    try:
        mtime: int | None = os.stat(path).st_mtime_ns
    except OSError:
        mtime = None
    if _PROFILE_CACHE is not None:
        cached_path, cached_mtime, cached = _PROFILE_CACHE
        if cached_path == path and cached_mtime == mtime:
            return cached
    profile = load_profile(path) if mtime is not None else None
    _PROFILE_CACHE = (path, mtime, profile)
    return profile
