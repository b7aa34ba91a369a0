"""Unit tests for the cost-based execution planner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.fixtures import clustered_pair, uniform_pair
from repro.engine.arrays import PointArray
from repro.parallel.costmodel import (
    DEFAULT_BUDGET_BYTES,
    PLANNED_FAMILY_NAMES,
    ExecutionPlan,
    choose_dynamic_backend,
    choose_family_plan,
    choose_plan,
    choose_topk_plan,
    estimate_bytes,
    estimate_candidates,
    estimate_family_candidates,
    memory_budget_bytes,
    sample_density_factor,
)

BIG = 1 << 40  # effectively unlimited budget


def _fake_big(points, factor):
    """A column object impersonating a ``factor``-times-bigger dataset
    (plan selection only reads sizes and a strided coordinate sample,
    so tiled columns are indistinguishable from the real thing and far
    cheaper than generating it)."""
    arr = PointArray.from_points(points)
    n = len(arr) * factor

    class Inflated:
        x = np.resize(arr.x, n)
        y = np.resize(arr.y, n)

        def __len__(self):
            return n

    return Inflated()


def _knn_plan(points_p, points_q, **kwargs):
    """The plan of a kNN join (k=16), a family that pools."""
    return choose_family_plan("knn", points_p, points_q, k=16, **kwargs)


class TestPlanSelection:
    def test_small_input_stays_serial(self):
        points_p, points_q = uniform_pair(300, 300, seed=1)
        plan = choose_plan(points_p, points_q, workers=4, budget_bytes=BIG)
        assert plan.engine == "array"
        assert plan.workers == 1

    def test_large_input_goes_parallel(self):
        points_p, points_q = uniform_pair(400, 400, seed=2)
        plan = _knn_plan(
            _fake_big(points_p, 500),
            _fake_big(points_q, 500),
            workers=4,
            budget_bytes=BIG,
        )
        assert plan.engine == "array-parallel"
        assert plan.workers == 4

    def test_rcj_never_goes_parallel(self):
        # The bulk RCJ's triangulation is global: it does not shard.
        points_p, points_q = uniform_pair(400, 400, seed=2)
        plan = choose_plan(
            _fake_big(points_p, 500),
            _fake_big(points_q, 500),
            workers=4,
            budget_bytes=BIG,
        )
        assert (plan.engine, plan.workers) == ("array", 1)
        assert any("triangulation is global" in r for r in plan.reasons)

    def test_one_worker_forbids_parallel(self):
        points_p, points_q = uniform_pair(400, 400, seed=2)
        plan = choose_plan(
            _fake_big(points_p, 500), _fake_big(points_q, 500),
            workers=1, budget_bytes=BIG,
        )
        assert plan.engine == "array"

    def test_budget_overflow_selects_rtree_backend(self):
        points_p, points_q = uniform_pair(500, 500, seed=3)
        plan = choose_plan(points_p, points_q, workers=4, budget_bytes=1)
        assert plan.engine == "obj"
        assert plan.workers == 1

    def test_tight_budget_sheds_workers_before_abandoning_parallelism(self):
        # A budget that fits a few workers but not the full request must
        # shrink the pool, not fall back to serial.
        points_p, points_q = uniform_pair(400, 400, seed=3)
        big_p, big_q = _fake_big(points_p, 500), _fake_big(points_q, 500)
        wide = _knn_plan(big_p, big_q, workers=16, budget_bytes=BIG)
        assert wide.engine == "array-parallel" and wide.workers == 16
        budget = estimate_bytes(
            len(big_p), len(big_q), 4, wide.est_candidates
        )
        shed = _knn_plan(big_p, big_q, workers=16, budget_bytes=budget)
        assert shed.engine == "array-parallel"
        assert 2 <= shed.workers <= 4
        assert any("shed" in r for r in shed.reasons)

    def test_worker_budget_scales_with_work(self):
        # Moderately sized input: parallel, but not worth 64 processes.
        points_p, points_q = uniform_pair(400, 400, seed=4)
        plan = _knn_plan(
            _fake_big(points_p, 20), _fake_big(points_q, 20),
            workers=64, budget_bytes=BIG,
        )
        assert plan.engine == "array-parallel"
        assert 2 <= plan.workers < 64

    def test_empty_input(self):
        points_p, _ = uniform_pair(50, 50, seed=5)
        plan = choose_plan(points_p, [], workers=4)
        assert plan.engine == "array"
        assert plan.est_candidates == 0

    def test_invalid_workers_rejected(self):
        points_p, points_q = uniform_pair(50, 50, seed=6)
        with pytest.raises(ValueError, match="workers"):
            choose_plan(points_p, points_q, workers=0)

    def test_deterministic(self):
        points_p, points_q = clustered_pair(600, 600, seed=7)
        assert choose_plan(points_p, points_q, workers=4) == choose_plan(
            points_p, points_q, workers=4
        )


class TestDensitySample:
    def test_uniform_data_near_one(self):
        points_p, points_q = uniform_pair(2000, 2000, seed=8)
        factor = sample_density_factor(points_p, points_q)
        assert 0.5 <= factor <= 2.0

    def test_clustered_selfjoin_denser_than_uniform(self):
        # Self-join shape: probes drawn from the same clusters as the
        # data sit in locally dense regions, so the factor must exceed
        # the uniform baseline.
        uni_p, _ = uniform_pair(2000, 2000, seed=9)
        clu_p, _ = clustered_pair(2000, 2000, seed=9, w=3)
        assert sample_density_factor(clu_p, clu_p) > sample_density_factor(
            uni_p, uni_p
        )

    def test_disjoint_clusters_sparser_than_uniform(self):
        # clustered_pair draws P and Q around *independent* centres:
        # probes mostly sit where P is sparse, and the factor says so.
        clu_p, clu_q = clustered_pair(2000, 2000, seed=9, w=3)
        assert sample_density_factor(clu_p, clu_q) < 1.0

    def test_skew_inflates_candidate_estimate(self):
        uni = estimate_candidates(10_000, 10_000, 1.0)
        skewed = estimate_candidates(10_000, 10_000, 3.0)
        assert skewed == 3 * uni

    def test_degenerate_extent_defaults_to_one(self):
        from repro.geometry.point import Point

        line = [Point(5.0, float(i), i) for i in range(100)]
        assert sample_density_factor(line, line) == 1.0

    def test_accepts_point_arrays(self):
        points_p, points_q = uniform_pair(500, 500, seed=10)
        via_points = sample_density_factor(points_p, points_q)
        via_arrays = sample_density_factor(
            PointArray.from_points(points_p), PointArray.from_points(points_q)
        )
        assert via_points == pytest.approx(via_arrays)


class TestEstimatesAndExplain:
    def test_bytes_monotone_in_everything(self):
        base = estimate_bytes(1000, 1000, 1, 10_000)
        assert estimate_bytes(2000, 1000, 1, 10_000) > base
        assert estimate_bytes(1000, 1000, 4, 10_000) > base
        assert estimate_bytes(1000, 1000, 1, 90_000) > base

    def test_describe_mentions_decision_and_inputs(self):
        points_p, points_q = uniform_pair(200, 250, seed=11)
        plan = choose_plan(points_p, points_q, workers=2)
        text = plan.describe()
        assert "engine=array" in text
        assert "|P| = 200" in text and "|Q| = 250" in text
        assert "budget" in text
        assert plan.reasons  # every decision carries its why

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "2.5")
        assert memory_budget_bytes() == int(2.5 * (1 << 20))

    def test_plan_is_frozen(self):
        points_p, points_q = uniform_pair(60, 60, seed=12)
        plan = choose_plan(points_p, points_q)
        assert isinstance(plan, ExecutionPlan)
        with pytest.raises(Exception):
            plan.engine = "brute"

    def test_with_measured_keeps_plan_frozen_and_describes(self):
        points_p, points_q = uniform_pair(60, 60, seed=13)
        plan = choose_plan(points_p, points_q)
        assert plan.measured is None and plan.measured_seconds == {}
        measured = plan.with_measured({"candidate": 0.5, "verify": 0.25})
        assert measured.measured_seconds == {"candidate": 0.5, "verify": 0.25}
        assert measured.engine == plan.engine
        assert "measured:" in measured.describe()
        assert "candidate=0.500s" in measured.describe()
        with pytest.raises(Exception):
            measured.measured = None


class TestTopkPlan:
    @pytest.mark.parametrize("workload", [False, True])
    def test_small_k_goes_array_with_or_without_prebuilt_trees(
        self, workload
    ):
        # The R-tree heap lost to the band pipeline at every small k
        # measured, over prebuilt trees too; only the budget or a
        # fitted profile sends top-k to it.
        from repro.bench.runner import build_workload
        from repro.engine.planner import run_topk

        points_p, points_q = uniform_pair(300, 300, seed=20)
        plan = choose_topk_plan(points_p, points_q, k=5, budget_bytes=BIG)
        assert plan.engine == "array"
        assert plan.reasons
        report = run_topk(
            points_p,
            points_q,
            5,
            engine="auto",
            workload=build_workload(points_q, points_p) if workload else None,
        )
        assert report.plan.engine == "array"

    def test_large_k_goes_array(self):
        points_p, points_q = uniform_pair(300, 300, seed=20)
        plan = choose_topk_plan(points_p, points_q, k=65, budget_bytes=BIG)
        assert plan.engine == "array"

    def test_large_data_goes_array_even_for_tiny_k(self):
        points_p, points_q = uniform_pair(400, 400, seed=21)
        plan = choose_topk_plan(
            _fake_big(points_p, 100),
            _fake_big(points_q, 100),
            k=5,
            budget_bytes=BIG,
        )
        assert plan.engine == "array"

    def test_budget_overflow_forces_obj(self):
        points_p, points_q = uniform_pair(500, 500, seed=22)
        plan = choose_topk_plan(points_p, points_q, k=1000, budget_bytes=1)
        assert plan.engine == "obj"

    def test_empty_or_zero_k_trivial(self):
        points_p, points_q = uniform_pair(50, 50, seed=23)
        assert choose_topk_plan([], points_q, k=5).engine == "array"
        assert choose_topk_plan(points_p, points_q, k=0).engine == "array"


class TestMemoryBudgetValidation:
    def test_unset_yields_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMORY_BUDGET_MB", raising=False)
        assert memory_budget_bytes() == DEFAULT_BUDGET_BYTES

    def test_blank_yields_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "   ")
        assert memory_budget_bytes() == DEFAULT_BUDGET_BYTES

    @pytest.mark.parametrize("bad", ["0", "-5", "-0.1", "nan", "-inf"])
    def test_non_positive_rejected_naming_the_variable(
        self, monkeypatch, bad
    ):
        # "0" and negatives used to yield a 0-byte budget that silently
        # routed every join onto the slow obj path; now they fail fast.
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", bad)
        with pytest.raises(ValueError, match="REPRO_MEMORY_BUDGET_MB"):
            memory_budget_bytes()

    @pytest.mark.parametrize("bad", ["abc", "12MB", ""])
    def test_non_numeric_rejected_naming_the_variable(
        self, monkeypatch, bad
    ):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", bad)
        if not bad.strip():
            assert memory_budget_bytes() == DEFAULT_BUDGET_BYTES
        else:
            # Previously a bare float() ValueError with no mention of
            # the variable that caused it.
            with pytest.raises(
                ValueError, match="REPRO_MEMORY_BUDGET_MB"
            ):
                memory_budget_bytes()

    def test_infinite_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "inf")
        with pytest.raises(ValueError, match="finite"):
            memory_budget_bytes()

    def test_valid_override_still_works(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "64")
        assert memory_budget_bytes() == 64 * (1 << 20)

    def test_plan_surfaces_the_error(self, monkeypatch):
        # choose_plan consults the budget when none is passed: the
        # validation error reaches the caller instead of a bogus plan.
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "0")
        points_p, points_q = uniform_pair(50, 50, seed=30)
        with pytest.raises(ValueError, match="REPRO_MEMORY_BUDGET_MB"):
            choose_plan(points_p, points_q)


class TestFamilyPlanValidation:
    def test_unknown_family_rejected_listing_valid_names(self):
        # Previously fell silently into the CIJ branch and returned a
        # bogus (but plausible-looking) plan.
        points_p, points_q = uniform_pair(50, 50, seed=31)
        with pytest.raises(ValueError, match="unknown join family") as exc:
            choose_family_plan("voronoi", points_p, points_q)
        for name in PLANNED_FAMILY_NAMES:
            assert name in str(exc.value)

    def test_epsilon_without_eps_rejected(self):
        # Previously a bare TypeError deep inside the eps estimator.
        points_p, points_q = uniform_pair(50, 50, seed=31)
        with pytest.raises(ValueError, match="eps"):
            choose_family_plan("epsilon", points_p, points_q)

    @pytest.mark.parametrize("family", ["knn", "kcp"])
    def test_k_families_without_k_rejected(self, family):
        points_p, points_q = uniform_pair(50, 50, seed=31)
        with pytest.raises(ValueError, match="requires k"):
            choose_family_plan(family, points_p, points_q)

    def test_estimator_validates_too(self):
        points_p, points_q = uniform_pair(50, 50, seed=31)
        with pytest.raises(ValueError, match="unknown join family"):
            estimate_family_candidates("nope", points_p, points_q)
        with pytest.raises(ValueError, match="eps"):
            estimate_family_candidates("epsilon", points_p, points_q)

    def test_valid_requests_still_plan(self):
        points_p, points_q = uniform_pair(300, 300, seed=32)
        assert choose_family_plan(
            "epsilon", points_p, points_q, eps=40.0
        ).engine in ("array", "array-parallel")
        assert choose_family_plan("knn", points_p, points_q, k=4).engine
        assert choose_family_plan("cij", points_p, points_q).engine


class TestDynamicBackendChoice:
    def test_fits_budget_picks_array(self):
        backend, reason = choose_dynamic_backend(1000, 1000, budget_bytes=BIG)
        assert backend == "array"
        assert "fits" in reason

    def test_over_budget_picks_obj(self):
        backend, reason = choose_dynamic_backend(1000, 1000, budget_bytes=1)
        assert backend == "obj"
        assert "budget" in reason
