"""Unit tests for the calibration observation log."""

from __future__ import annotations

import json
import os

import pytest

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


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh, isolated calibration store for one test."""
    monkeypatch.setenv("REPRO_CALIBRATION_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
    return tmp_path


def _record(**overrides) -> str:
    fields = dict(
        kind="join",
        engine="array",
        workers=1,
        n_p=100,
        n_q=120,
        density_factor=1.1,
        est_candidates=1600,
        est_bytes=50_000,
        stage_seconds={"candidate": 0.01, "verify": 0.02},
        total_seconds=0.05,
    )
    fields.update(overrides)
    return record_observation(**fields)


class TestStore:
    def test_env_override_controls_location(self, store):
        assert calibration_dir() == str(store)
        assert observations_path() == str(store / "observations.jsonl")

    def test_record_and_load_round_trip(self, store):
        path = _record()
        records = load_observations(path)
        assert len(records) == 1
        (obs,) = records
        assert obs["workload"] == "join"
        assert obs["engine"] == "array"
        assert obs["est_candidates"] == 1600
        assert obs["stage_seconds"]["verify"] == pytest.approx(0.02)
        assert obs["host"]["key"] == host_fingerprint()["key"]

    def test_records_append(self, store):
        _record()
        _record(engine="array-parallel", workers=2)
        assert [o["engine"] for o in load_observations()] == [
            "array",
            "array-parallel",
        ]

    def test_zero_total_not_recorded(self, store):
        _record(total_seconds=0.0)
        assert load_observations() == []

    def test_corrupt_lines_skipped(self, store):
        _record()
        with open(observations_path(), "a") as f:
            f.write("{truncated\n")
            f.write("42\n")
        _record(engine="obj")
        assert len(load_observations()) == 2

    def test_missing_store_loads_empty(self, store):
        assert load_observations() == []

    def test_reset_removes_observations_and_profiles(self, store):
        _record()
        (store / "profile-somehost.json").write_text("{}\n")
        (store / "keepme.txt").write_text("not calibration data\n")
        removed = reset_calibration()
        assert len(removed) == 2
        assert load_observations() == []
        assert (store / "keepme.txt").exists()


class TestKillSwitch:
    @pytest.mark.parametrize("off", ["0", "off", "false", "no"])
    def test_disables_recording(self, store, monkeypatch, off):
        monkeypatch.setenv("REPRO_CALIBRATION", off)
        assert not calibration_enabled()
        _record()
        assert load_observations() == []

    def test_enabled_by_default(self, store):
        assert calibration_enabled()


class TestHostFingerprint:
    def test_carries_identity_and_speed(self):
        host = host_fingerprint()
        assert host["cpu_count"] == (os.cpu_count() or 1)
        assert f"{host['cpu_count']}cpu" in host["key"]
        assert host["microbench_seconds"] > 0.0

    def test_stable_within_process(self):
        assert host_fingerprint() == host_fingerprint()


class TestWorkloadKey:
    def test_families_get_their_own_workload(self):
        assert workload_key("join") == "join"
        assert workload_key("topk") == "topk"
        assert workload_key("family", "epsilon") == "family:epsilon"
        assert workload_key("family", "rcj") == "family"


class TestRecordPlannedRun:
    def test_records_from_plan_and_report(self, store):
        from repro.datasets.fixtures import uniform_pair
        from repro.engine.planner import run_join

        points_p, points_q = uniform_pair(200, 200, seed=41)
        report = run_join(points_p, points_q, engine="auto", workers=1)
        assert report.plan is not None
        records = load_observations()
        assert len(records) == 1
        (obs,) = records
        assert obs["engine"] == report.plan.engine
        assert obs["est_candidates"] == report.plan.est_candidates
        assert obs["total_seconds"] > 0.0

    def test_swallows_broken_reports(self, store):
        class Hostile:
            engine = "array"
            workers = 1
            n_p = 1
            n_q = 1
            density_factor = 1.0
            est_candidates = 1

            @property
            def est_bytes(self):
                raise RuntimeError("boom")

        record_planned_run(Hostile(), object(), "join")  # must not raise
        assert load_observations() == []

    def test_unplanned_run_records_nothing(self, store):
        from repro.datasets.fixtures import uniform_pair
        from repro.engine.planner import run_join

        points_p, points_q = uniform_pair(150, 150, seed=42)
        run_join(points_p, points_q, engine="array")
        assert load_observations() == []

    def test_family_and_topk_runs_record_their_workload(self, store):
        from repro.datasets.fixtures import uniform_pair
        from repro.engine.planner import run_join
        from repro.engine.planner import run_topk

        points_p, points_q = uniform_pair(200, 200, seed=43)
        run_join(points_p, points_q, family="epsilon", eps=30.0, workers=1)
        run_topk(points_p, points_q, 5, engine="auto")
        workloads = {o["workload"] for o in load_observations()}
        assert workloads == {"family:epsilon", "topk"}
