"""Self-calibration of the cost-based planner.

The planner's static model (:mod:`repro.parallel.costmodel`) picks
engines from first-order constants that cannot know the host: a 1-core
container, a 64-core server and a laptop throttling on battery all get
the same thresholds, and the shipped ``BENCH_parallel.json`` (speedup
0.35–0.93x at 2–4 workers on a 1-core host) shows exactly the mispick
that produces.  This package closes the measurement loop the PR 5/6
groundwork left open — estimates live on
:attr:`~repro.parallel.costmodel.ExecutionPlan.est_candidates`, measured
per-stage wall times on the report's stage split and
:attr:`~repro.parallel.costmodel.ExecutionPlan.measured` — in three
steps.  Stage splits come only from the trace tree
(:func:`repro.obs.trace.stage_totals`): under ``REPRO_TRACE=0`` an
observation records the total seconds without one, and the per-stage
models are fitted from traced runs alone.  The steps:

- :mod:`repro.calibration.observations` — every *planned* execution
  (``run_join`` / ``run_topk`` / family joins under ``engine="auto"``)
  appends one JSONL record pairing the plan's estimates with what
  actually happened, stamped with a host fingerprint (CPU count,
  platform, a one-shot microbenchmark constant).  The store lives under
  ``REPRO_CALIBRATION_DIR`` (default ``~/.cache/repro/calibration``);
  ``REPRO_CALIBRATION=0`` disables the whole loop.
- :mod:`repro.calibration.refit` — least-squares fit of per-engine cost
  constants (fixed setup seconds plus seconds per estimated candidate,
  per observed worker count for the parallel engine) from the accumulated
  observations, persisted as a per-host profile JSON.
- :mod:`repro.calibration.profile` — the fitted
  :class:`CalibrationProfile` the planner loads: ``choose_plan``,
  ``choose_family_plan`` and ``choose_topk_plan`` compare *predicted
  seconds* per viable plan instead of raw threshold constants, falling
  back to the static thresholds whenever no profile (or no fitted model
  for a decision) exists.

:mod:`repro.calibration.sweep` seeds the store with a bounded forced
sweep of every engine (the CLI's ``python -m repro calibrate``), so a
fresh host converges in one command instead of waiting for organic
planned traffic.
"""

from repro.calibration.observations import (
    calibration_dir,
    calibration_enabled,
    host_fingerprint,
    load_observations,
    observations_path,
    record_observation,
    record_planned_run,
    reset_calibration,
    workload_key,
)
from repro.calibration.profile import (
    CalibrationProfile,
    EngineModel,
    cached_profile,
    load_profile,
    profile_path,
    save_profile,
)
from repro.calibration.refit import refit_profile
from repro.calibration.sweep import run_calibration_sweep

__all__ = [
    "CalibrationProfile",
    "EngineModel",
    "cached_profile",
    "calibration_dir",
    "calibration_enabled",
    "host_fingerprint",
    "load_observations",
    "load_profile",
    "observations_path",
    "profile_path",
    "record_observation",
    "record_planned_run",
    "refit_profile",
    "reset_calibration",
    "run_calibration_sweep",
    "save_profile",
    "workload_key",
]
