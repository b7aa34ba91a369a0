"""Integration tests: observations → refit → persisted profile →
profile-aware planning.

The round-trip the tentpole exists for: measured runs recorded by the
planner seam become a fitted per-host profile, and the profile changes
what ``choose_plan`` / ``choose_family_plan`` / ``choose_topk_plan``
decide — while its absence leaves every decision byte-identical to the
static thresholds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration.observations import host_fingerprint
from repro.calibration.profile import (
    CalibrationProfile,
    EngineModel,
    load_profile,
    profile_path,
    save_profile,
)
from repro.calibration.refit import refit_profile
from repro.datasets.fixtures import uniform_pair
from repro.engine.arrays import PointArray
from repro.parallel.costmodel import (
    choose_family_plan,
    choose_plan,
    choose_topk_plan,
)

BIG = 1 << 40


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh calibration store; anything saved here is visible to the
    planner through ``cached_profile`` (mtime-validated, so rewrites
    within one test are seen too)."""
    monkeypatch.setenv("REPRO_CALIBRATION_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
    return tmp_path


def _fake_big(points, factor):
    arr = PointArray.from_points(points)
    n = len(arr) * factor

    class Inflated:
        x = np.resize(arr.x, n)
        y = np.resize(arr.y, n)

        def __len__(self):
            return n

    return Inflated()


def _profile(models: dict[str, EngineModel]) -> CalibrationProfile:
    return CalibrationProfile(
        host=host_fingerprint(),
        fitted_at="test",
        n_observations=8,
        models=models,
    )


class TestProfilePersistence:
    def test_save_load_round_trip(self, store):
        profile = _profile(
            {
                "join/array": EngineModel(0.01, 2e-6, 4),
                "join/array-parallel@2": EngineModel(0.05, 4e-6, 4),
            }
        )
        path = save_profile(profile)
        assert path == profile_path()
        loaded = load_profile()
        assert loaded == profile

    def test_corrupt_profile_loads_none(self, store):
        with open(profile_path(), "w") as f:
            f.write("{]")
        assert load_profile() is None

    def test_kill_switch_hides_profile(self, store, monkeypatch):
        save_profile(_profile({"join/array": EngineModel(0.01, 2e-6, 4)}))
        monkeypatch.setenv("REPRO_CALIBRATION", "0")
        assert load_profile() is None


#: The pooled family the calibrated pool decisions are tested on (the
#: bulk RCJ never pools: its triangulation is global).
KNN = {"k": 4}


def _knn_plan(points_p, points_q, workers):
    return choose_family_plan(
        "knn", points_p, points_q, workers=workers, budget_bytes=BIG, **KNN
    )


class TestNoProfileFallback:
    """Without a profile the planner is byte-identical to the static
    thresholds — the acceptance criterion the equivalence suites rely
    on."""

    def test_plans_carry_no_prediction(self, store):
        points_p, points_q = uniform_pair(400, 400, seed=50)
        for plan in (
            choose_plan(points_p, points_q, workers=4, budget_bytes=BIG),
            _knn_plan(points_p, points_q, workers=4),
        ):
            assert plan.predicted_seconds is None
            assert not any("calibrated" in r for r in plan.reasons)

    def test_irrelevant_profile_leaves_decision_identical(self, store):
        points_p, points_q = uniform_pair(400, 400, seed=50)
        before = _knn_plan(points_p, points_q, workers=4)
        # A profile with no model for the kNN workload: the calibrated
        # branch must decline and fall through untouched.
        save_profile(_profile({"join/array": EngineModel(0.01, 1e-6, 2)}))
        after = _knn_plan(points_p, points_q, workers=4)
        assert after == before

    def test_kill_switch_restores_static_decision(self, store, monkeypatch):
        points_p, points_q = uniform_pair(400, 400, seed=50)
        static = _knn_plan(points_p, points_q, workers=4)
        save_profile(
            _profile(
                {
                    "family:knn/array": EngineModel(10.0, 1e-3, 4),
                    "family:knn/array-parallel@2": EngineModel(0.0, 1e-9, 4),
                }
            )
        )
        calibrated = _knn_plan(points_p, points_q, workers=4)
        assert calibrated != static  # the profile did change the plan
        monkeypatch.setenv("REPRO_CALIBRATION", "0")
        disabled = _knn_plan(points_p, points_q, workers=4)
        assert disabled == static


class TestCalibratedPooledPlanning:
    def test_profile_flips_serial_to_parallel(self, store):
        # Static thresholds keep this size serial (est_cand below the
        # parallel floor); a profile that measured the pool faster must
        # override them.
        points_p, points_q = uniform_pair(400, 400, seed=51)
        big_p, big_q = _fake_big(points_p, 7), _fake_big(points_q, 7)
        static = _knn_plan(big_p, big_q, workers=4)
        assert static.engine == "array"

        save_profile(
            _profile(
                {
                    "family:knn/array": EngineModel(0.0, 5e-6, 4),
                    "family:knn/array-parallel@2": EngineModel(0.01, 1e-6, 4),
                }
            )
        )
        plan = _knn_plan(big_p, big_q, workers=4)
        assert plan.engine == "array-parallel"
        assert plan.workers == 2
        assert plan.predicted_seconds is not None
        assert any("calibrated" in r for r in plan.reasons)
        assert any("predicted" in r for r in plan.reasons)

    def test_1core_profile_flips_parallel_to_serial(self, store):
        # The recorded regression: static thresholds pick the pool on
        # paper-scale data, but a profile fitted from 1-core runs knows
        # the pool only loses there.
        points_p, points_q = uniform_pair(400, 400, seed=52)
        big_p, big_q = _fake_big(points_p, 500), _fake_big(points_q, 500)
        static = _knn_plan(big_p, big_q, workers=4)
        assert static.engine == "array-parallel"

        save_profile(
            _profile(
                {
                    "family:knn/array": EngineModel(0.05, 2e-6, 4),
                    "family:knn/array-parallel@2": EngineModel(0.15, 4.5e-6, 4),
                    "family:knn/array-parallel@4": EngineModel(0.25, 5e-6, 4),
                }
            )
        )
        plan = _knn_plan(big_p, big_q, workers=4)
        assert plan.engine == "array"
        assert plan.workers == 1
        assert plan.predicted_seconds is not None

    def test_worker_budget_caps_profile_counts(self, store):
        points_p, points_q = uniform_pair(400, 400, seed=53)
        big_p, big_q = _fake_big(points_p, 500), _fake_big(points_q, 500)
        save_profile(
            _profile(
                {
                    "family:knn/array": EngineModel(1.0, 5e-6, 4),
                    "family:knn/array-parallel@2": EngineModel(0.2, 2e-6, 4),
                    "family:knn/array-parallel@8": EngineModel(0.01, 1e-7, 4),
                }
            )
        )
        plan = _knn_plan(big_p, big_q, workers=2)
        assert (plan.engine, plan.workers) == ("array-parallel", 2)

    def test_profile_rewrite_is_seen(self, store):
        # cached_profile is mtime-validated: refitting mid-process must
        # change the very next plan.
        points_p, points_q = uniform_pair(400, 400, seed=54)
        big_p, big_q = _fake_big(points_p, 7), _fake_big(points_q, 7)
        save_profile(
            _profile(
                {
                    "family:knn/array": EngineModel(0.0, 1e-6, 4),
                    "family:knn/array-parallel@2": EngineModel(1.0, 1e-6, 4),
                }
            )
        )
        assert _knn_plan(big_p, big_q, workers=4).engine == "array"
        save_profile(
            _profile(
                {
                    "family:knn/array": EngineModel(1.0, 1e-6, 4),
                    "family:knn/array-parallel@2": EngineModel(0.0, 1e-7, 4),
                }
            )
        )
        assert _knn_plan(big_p, big_q, workers=4).engine == "array-parallel"

    def test_rcj_plan_ignores_pool_models(self, store):
        # The bulk RCJ does not shard, so even a profile that measured
        # a pool faster leaves its plan serial and static.
        points_p, points_q = uniform_pair(400, 400, seed=51)
        big_p, big_q = _fake_big(points_p, 500), _fake_big(points_q, 500)
        save_profile(
            _profile(
                {
                    "join/array": EngineModel(1.0, 5e-6, 4),
                    "join/array-parallel@2": EngineModel(0.0, 1e-9, 4),
                }
            )
        )
        plan = choose_plan(big_p, big_q, workers=4, budget_bytes=BIG)
        assert (plan.engine, plan.workers) == ("array", 1)
        assert plan.predicted_seconds is None
        assert any("triangulation is global" in r for r in plan.reasons)


class TestCalibratedFamilyAndTopk:
    def test_family_profile_flips_engine(self, store):
        points_p, points_q = uniform_pair(400, 400, seed=55)
        big_p, big_q = _fake_big(points_p, 7), _fake_big(points_q, 7)
        static = choose_family_plan(
            "epsilon", big_p, big_q, eps=200.0, workers=4, budget_bytes=BIG
        )
        assert static.engine == "array"
        save_profile(
            _profile(
                {
                    "family:epsilon/array": EngineModel(0.0, 5e-6, 4),
                    "family:epsilon/array-parallel@2": EngineModel(
                        0.0, 1e-6, 4
                    ),
                }
            )
        )
        plan = choose_family_plan(
            "epsilon", big_p, big_q, eps=200.0, workers=4, budget_bytes=BIG
        )
        assert (plan.engine, plan.workers) == ("array-parallel", 2)
        assert plan.predicted_seconds is not None

    def test_topk_profile_flips_array_to_obj(self, store):
        # Static rule: the band pipeline whenever it fits the budget.
        # A profile that measured the R-tree heap faster overrides it.
        points_p, points_q = uniform_pair(300, 300, seed=56)
        static = choose_topk_plan(points_p, points_q, k=5, budget_bytes=BIG)
        assert static.engine == "array"
        save_profile(
            _profile(
                {
                    "topk/array": EngineModel(0.2, 5e-5, 4),
                    "topk/obj": EngineModel(0.005, 1e-7, 4),
                }
            )
        )
        plan = choose_topk_plan(points_p, points_q, k=5, budget_bytes=BIG)
        assert plan.engine == "obj"
        assert plan.predicted_seconds is not None
        assert any("calibrated" in r for r in plan.reasons)

    def test_topk_partial_profile_falls_back_static(self, store):
        # Both routes must be modelled to compare; one-sided knowledge
        # keeps the static rules.
        points_p, points_q = uniform_pair(300, 300, seed=56)
        save_profile(_profile({"topk/obj": EngineModel(0.005, 1e-7, 4)}))
        plan = choose_topk_plan(points_p, points_q, k=5, budget_bytes=BIG)
        assert plan.engine == "array"
        assert plan.predicted_seconds is None


class TestEndToEndRoundTrip:
    def test_planned_runs_to_refit_to_flipped_decision(self, store):
        """The full loop on real executions: planned runs record
        observations, a refit persists the profile, and the very next
        plan is made from predictions (with synthetic parallel
        observations injected to give the fit both engine lines)."""
        from repro.calibration.observations import (
            load_observations,
            record_observation,
        )
        from repro.engine.planner import run_join

        points_p, points_q = uniform_pair(400, 400, seed=57)
        for seed in (1, 2):
            sub = points_p if seed == 1 else points_p[: len(points_p) // 2]
            report = run_join(
                sub, points_q, family="knn", engine="auto", workers=1, **KNN
            )
            assert report.plan is not None
        recorded = load_observations()
        assert len(recorded) == 2
        # Two synthetic pool observations at this host's key, strictly
        # slower than the measured serial runs (the 1-core story).
        for obs in recorded:
            record_observation(
                kind="family",
                family="knn",
                engine="array-parallel",
                workers=2,
                n_p=obs["n_p"],
                n_q=obs["n_q"],
                density_factor=obs["density_factor"],
                est_candidates=obs["est_candidates"],
                est_bytes=obs["est_bytes"],
                stage_seconds=None,
                total_seconds=10 * obs["total_seconds"] + 0.1,
            )
        profile = refit_profile()
        save_profile(profile)
        assert profile.parallel_worker_counts("family:knn") == (2,)

        big_p, big_q = _fake_big(points_p, 500), _fake_big(points_q, 500)
        plan = _knn_plan(big_p, big_q, workers=2)
        assert plan.predicted_seconds is not None
        assert plan.engine == "array"  # the pool measured 10x slower

    def test_parallel_execution_feeds_stage_times(self, store):
        """Satellite: a real pool run must land per-stage seconds on
        the report (and the plan), so parallel observations carry the
        same stage detail serial ones do."""
        from repro.engine.planner import run_join

        points_p, points_q = uniform_pair(600, 600, seed=58)
        report = run_join(
            points_p,
            points_q,
            family="knn",
            engine="array-parallel",
            workers=2,
            min_shard=64,
            **KNN,
        )
        assert report.workers_used == 2
        assert report.stage_seconds, "pool run lost its stage times"
        assert "knn" in report.stage_seconds
