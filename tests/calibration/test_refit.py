"""Unit tests for the least-squares refit step."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration.observations import host_fingerprint
from repro.calibration.profile import CalibrationProfile
from repro.calibration.refit import _fit_linear, refit_profile


def _obs(
    engine="array",
    workers=1,
    est=10_000,
    total=0.1,
    workload="join",
    stage_seconds=None,
    host=None,
):
    return {
        "kind": "join",
        "workload": workload,
        "engine": engine,
        "workers": workers,
        "n_p": 1000,
        "n_q": 1000,
        "est_candidates": est,
        "est_bytes": 1_000_000,
        "stage_seconds": stage_seconds or {},
        "total_seconds": total,
        "host": host if host is not None else host_fingerprint(),
    }


class TestFitLinear:
    def test_exact_line_recovered(self):
        est = np.array([1000.0, 2000.0, 4000.0])
        secs = 0.01 + 2e-6 * est
        base, slope = _fit_linear(est, secs)
        assert base == pytest.approx(0.01, rel=1e-6)
        assert slope == pytest.approx(2e-6, rel=1e-6)

    def test_negative_slope_clamped_to_flat_mean(self):
        est = np.array([1000.0, 2000.0, 4000.0])
        secs = np.array([0.4, 0.3, 0.1])  # faster with more work: noise
        base, slope = _fit_linear(est, secs)
        assert slope == 0.0
        assert base == pytest.approx(secs.mean())

    def test_negative_base_becomes_through_origin(self):
        est = np.array([1000.0, 2000.0])
        secs = np.array([0.0005, 0.004])  # lstsq intercept < 0
        base, slope = _fit_linear(est, secs)
        assert base == 0.0
        assert slope > 0.0
        # Predictions stay non-negative everywhere.
        assert base + slope * 100 >= 0.0

    def test_single_observation_is_a_ratio(self):
        base, slope = _fit_linear(np.array([5000.0]), np.array([0.05]))
        assert base == 0.0
        assert slope == pytest.approx(0.05 / 5000.0)

    def test_zero_estimates_flat(self):
        base, slope = _fit_linear(np.array([0.0, 0.0]), np.array([0.2, 0.4]))
        assert slope == 0.0
        assert base == pytest.approx(0.3)

    def test_empty(self):
        assert _fit_linear(np.array([]), np.array([])) == (0.0, 0.0)


class TestRefitProfile:
    def test_no_observations_raises_with_guidance(self):
        with pytest.raises(ValueError, match="calibrate"):
            refit_profile([])

    def test_groups_by_workload_engine_and_worker_count(self):
        observations = [
            _obs(est=10_000, total=0.02),
            _obs(est=40_000, total=0.05),
            _obs(engine="array-parallel", workers=2, est=10_000, total=0.06),
            _obs(engine="array-parallel", workers=2, est=40_000, total=0.12),
            _obs(engine="array-parallel", workers=4, est=40_000, total=0.2),
            _obs(workload="topk", engine="obj", est=100, total=0.3),
        ]
        profile = refit_profile(observations)
        assert isinstance(profile, CalibrationProfile)
        assert set(profile.models) >= {
            "join/array",
            "join/array-parallel@2",
            "join/array-parallel@4",
            "topk/obj",
        }
        assert profile.parallel_worker_counts("join") == (2, 4)
        assert profile.n_observations == 6

    def test_slower_parallel_host_fits_dominating_parallel_line(self):
        # The recorded 1-core regime: parallel strictly slower at every
        # size.  The per-worker-count fit must preserve that ordering
        # at any extrapolated candidate volume.
        observations = [
            _obs(est=10_000, total=0.02),
            _obs(est=40_000, total=0.08),
            _obs(engine="array-parallel", workers=2, est=10_000, total=0.15),
            _obs(engine="array-parallel", workers=2, est=40_000, total=0.40),
        ]
        profile = refit_profile(observations)
        for est in (1_000, 50_000, 10_000_000):
            serial = profile.predict_seconds("join", "array", 1, est)
            parallel = profile.predict_seconds(
                "join", "array-parallel", 2, est
            )
            assert parallel > serial, f"ordering lost at est={est}"

    def test_stage_models_fitted_from_stage_seconds(self):
        observations = [
            _obs(
                est=10_000,
                total=0.03,
                stage_seconds={"candidate": 0.01, "verify": 0.02},
            ),
            _obs(
                est=40_000,
                total=0.12,
                stage_seconds={"candidate": 0.04, "verify": 0.08},
            ),
        ]
        profile = refit_profile(observations)
        cand = profile.models["join/stage:candidate"]
        assert cand.predict(40_000) == pytest.approx(0.04, rel=0.05)
        assert "join/stage:verify" in profile.models
        # Unknown stage names are ignored, not modelled.
        assert "join/stage:merge" not in profile.models

    def test_profile_with_old_pools_entry_loads(self):
        # Profiles fitted before the thread pool carry process-startup
        # constants under "pools"; they load, and the entry is dropped.
        observations = [
            _obs(est=10_000, total=0.02),
            _obs(est=40_000, total=0.08),
            _obs(engine="array-parallel", workers=2, est=10_000, total=0.10),
            _obs(engine="array-parallel", workers=4, est=10_000, total=0.16),
        ]
        doc = refit_profile(observations).to_dict()
        assert "pools" not in doc
        doc["pools"] = {
            "join": {
                "startup_seconds": 0.05,
                "per_worker_seconds": 0.01,
                "n_obs": 2,
            }
        }
        profile = CalibrationProfile.from_dict(doc)
        assert profile.parallel_worker_counts("join") == (2, 4)
        assert "pool" not in profile.constants_line("join")

    def test_other_hosts_filtered_out(self):
        alien = dict(host_fingerprint())
        alien["key"] = "plan9-mips-64cpu"
        observations = [
            _obs(est=10_000, total=0.02),
            _obs(est=10_000, total=9.99, host=alien),
        ]
        profile = refit_profile(observations)
        assert profile.n_observations == 1
        # host_filter=False deliberately blends them.
        blended = refit_profile(observations, host_filter=False)
        assert blended.n_observations == 2

    def test_only_alien_observations_raises(self):
        alien = dict(host_fingerprint())
        alien["key"] = "plan9-mips-64cpu"
        with pytest.raises(ValueError, match="no usable"):
            refit_profile([_obs(host=alien)])

    def test_pointwise_coerces_to_obj(self):
        profile = refit_profile(
            [_obs(workload="topk", engine="pointwise", est=100, total=0.2)]
        )
        assert "topk/obj" in profile.models
        assert profile.predict_seconds("topk", "pointwise", 1, 100) == (
            profile.predict_seconds("topk", "obj", 1, 100)
        )
