"""Integration tests: traces of real planner runs.

Pins the tracing contract — a traced pooled join (the kNN join; the
RCJ does not shard) carries per-shard thread spans under the plan
root's pool span, the report's
``stage_seconds`` and the calibration observation derive from the
trace tree, results are byte-identical with tracing disabled, and
serial fallbacks record the worker count that actually ran.
"""

from __future__ import annotations

import pytest

from repro.core.brute import brute_force_rcj
from repro.datasets.fixtures import uniform_pair
from repro.engine.planner import run_join, run_topk
from repro.obs.export import to_chrome, validate_chrome
from repro.obs.trace import counter_totals, stage_totals

#: Forces real multi-shard pools on test-sized inputs.
MIN_SHARD = 64

N = 600


@pytest.fixture(scope="module")
def pointsets():
    return uniform_pair(N, N, seed=77)


def _run(pointsets, workers):
    """A kNN join on the worker pool (in-process for one worker)."""
    points_p, points_q = pointsets
    return run_join(
        points_p,
        points_q,
        family="knn",
        k=4,
        engine="array-parallel",
        workers=workers,
        min_shard=MIN_SHARD,
    )


class TestTracedParallelJoin:
    def test_shard_spans_under_the_pool_span(self, pointsets):
        report = _run(pointsets, workers=4)
        root = report.trace
        assert root is not None and root.name == "family-join"
        (pool,) = root.find("pool")
        shards = [c for c in pool.children if c.name == "shard"]
        assert len(shards) >= 2
        # Shard spans ran on pool threads...
        assert all(s.tid != root.tid for s in shards)
        # ...and carry the shard-measured stage spans and counters.
        assert all(s.find("knn") for s in shards)
        assert report.workers_used == 4

    def test_stage_seconds_derived_from_the_trace(self, pointsets):
        report = _run(pointsets, workers=4)
        totals = stage_totals(report.trace)
        assert report.stage_seconds == totals
        assert "knn" in totals

    def test_exports_valid_perfetto_json(self, pointsets):
        report = _run(pointsets, workers=4)
        doc = to_chrome(report.trace)
        validate_chrome(doc)
        # Overlapping shards sit on their threads' tracks.
        shard_tids = {
            e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "shard"
        }
        assert shard_tids and report.trace.tid not in shard_tids

    def test_observation_derives_from_the_trace(
        self, pointsets, tmp_path, monkeypatch
    ):
        from repro.calibration.observations import load_observations

        monkeypatch.setenv("REPRO_CALIBRATION_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
        points_p, points_q = pointsets
        report = run_join(points_p, points_q, engine="auto", workers=2)
        (obs,) = load_observations()
        assert obs["workers"] == report.workers_used
        assert obs["workers_planned"] == report.plan.workers
        if report.stage_seconds:
            totals = stage_totals(report.trace)
            for key, logged in obs["stage_seconds"].items():
                assert logged == pytest.approx(totals[key], abs=1e-6)


class TestRoundTripEquivalence:
    def test_same_tree_shape_and_counters_across_worker_counts(
        self, pointsets
    ):
        reports = {w: _run(pointsets, workers=w) for w in (1, 2, 4)}
        keys = {w: r.pair_keys() for w, r in reports.items()}
        assert keys[1] == keys[2] == keys[4]
        # workers=1 falls back in-process: stage spans sit under the
        # root; pooled runs re-parent them under shard spans.  Either
        # way the stage-name set and the verified/pairs totals agree.
        stage_names = {
            w: set(stage_totals(r.trace)) for w, r in reports.items()
        }
        assert stage_names[2] == stage_names[4]
        assert {"knn"} <= stage_names[1] <= stage_names[2]
        totals = {w: counter_totals(r.trace) for w, r in reports.items()}
        for w in (1, 2, 4):
            assert totals[w]["verified"] == len(reports[w].pairs)
            assert totals[w]["pairs"] == len(reports[w].pairs)
        shards = {
            w: len(reports[w].trace.find("shard")) for w in (1, 2, 4)
        }
        assert shards[1] == 0
        # Pooled runs shard (granularity tracks the worker count, so
        # the exact decomposition may differ between 2 and 4 workers).
        assert shards[2] > 1 and shards[4] > 1

    @pytest.mark.parametrize("join", ["knn-pooled", "rcj"])
    def test_disabled_tracing_is_byte_identical(
        self, pointsets, monkeypatch, join
    ):
        def run():
            if join == "rcj":
                return run_join(*pointsets, engine="array")
            return _run(pointsets, workers=2)

        traced = run()
        monkeypatch.setenv("REPRO_TRACE", "0")
        untraced = run()
        assert untraced.trace is None
        assert untraced.pair_keys() == traced.pair_keys()
        assert [p.key() for p in untraced.pairs] == [
            p.key() for p in traced.pairs
        ]
        assert untraced.candidate_count == traced.candidate_count
        # Stage times live only in the trace: untraced runs carry none.
        assert untraced.stage_seconds == {}

    def test_untraced_planned_run_has_no_measured_stages(
        self, pointsets, monkeypatch
    ):
        points_p, points_q = pointsets
        traced = run_join(points_p, points_q, engine="auto")
        monkeypatch.setenv("REPRO_TRACE", "0")
        untraced = run_join(points_p, points_q, engine="auto")
        assert traced.plan.measured is not None
        assert untraced.plan.measured is None
        assert untraced.stage_seconds == {}
        assert untraced.pair_keys() == traced.pair_keys()
        assert untraced.candidate_count == traced.candidate_count


class TestEffectiveWorkers:
    def test_serial_fallback_reports_workers_used_1(self, pointsets):
        points_p, points_q = pointsets
        # Default min_shard (512) makes 600 probes fall back in-process.
        report = run_join(
            points_p, points_q, family="knn", k=4, engine="array-parallel",
            workers=4,
        )
        assert report.workers_used == 1
        assert not report.trace.find("pool")

    def test_pooled_run_reports_effective_count(self, pointsets):
        report = _run(pointsets, workers=2)
        assert report.workers_used == 2

    def test_serial_engines_report_one(self, pointsets):
        points_p, points_q = pointsets
        report = run_join(points_p, points_q, engine="array")
        assert report.workers_used == 1

    def test_fallback_observation_records_effective_workers(
        self, tmp_path, monkeypatch
    ):
        import dataclasses

        from repro.calibration.observations import load_observations
        from repro.parallel import costmodel

        monkeypatch.setenv("REPRO_CALIBRATION_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
        points_p, points_q = uniform_pair(300, 300, seed=5)
        # Force the planner to *choose* a parallel plan for an input
        # that the pool layer will then refuse to shard: the recorded
        # observation must reflect the serial execution, not the plan.
        plan = dataclasses.replace(
            costmodel.choose_plan(points_p, points_q, workers=4),
            engine="array-parallel",
            workers=4,
        )
        monkeypatch.setattr(costmodel, "plan_join", lambda *a, **k: plan)
        report = run_join(points_p, points_q, engine="auto")
        assert report.workers_used == 1
        (obs,) = load_observations()
        assert obs["engine"] == "array-parallel"
        assert obs["workers"] == 1
        assert obs["workers_planned"] == 4


class TestRingFallbackCounter:
    """Ring verification counts the rings its nearest-blocker window
    could not settle on the ``verify`` stage span."""

    @staticmethod
    def _fallback(points_p, points_q):
        report = run_join(points_p, points_q, engine="array")
        (verify,) = report.trace.find("verify")
        return verify.counters.get("ring_fallback", 0)

    def test_uniform_join_settles_every_ring_from_its_window(self, pointsets):
        assert self._fallback(*pointsets) == 0

    def test_lattice_join_falls_back_on_cocircular_ties(self):
        from repro.datasets import worstcase

        points = worstcase.lattice(400)
        assert self._fallback(*worstcase.split_alternating(points)) > 0


class TestLocalSettling:
    """The ``verify`` span counts the rows the local Gabriel lemma
    settled; the ``candidate`` span says why it settled none."""

    @staticmethod
    def _spans(points_p, points_q):
        report = run_join(points_p, points_q, engine="array")
        (candidate,) = report.trace.find("candidate")
        (verify,) = report.trace.find("verify")
        return report, candidate, verify

    def test_uniform_join_settles_almost_every_row(self, pointsets):
        report, candidate, verify = self._spans(*pointsets)
        assert verify.counters["settled"] > 0.99 * report.candidate_count
        assert "settle_off" not in candidate.attrs

    def test_near_coincident_input_reports_why_settling_is_off(self):
        from repro.geometry.point import Point
        from tests.engine.test_arrays_kernels import NEAR_COINCIDENT

        coords_p, coords_q = NEAR_COINCIDENT
        _report, candidate, verify = self._spans(
            [Point(x, y, i) for i, (x, y) in enumerate(coords_p)],
            [Point(x, y, i) for i, (x, y) in enumerate(coords_q)],
        )
        assert candidate.attrs["settle_off"] == "unresolved-sites"
        assert verify.counters["settled"] == 0

    def test_refused_triangulation_reports_why_settling_is_off(self):
        from repro.datasets import worstcase

        points = worstcase.collinear(40)
        _report, candidate, verify = self._spans(
            *worstcase.split_alternating(points)
        )
        assert candidate.attrs["settle_off"] == "refused"
        assert verify.counters["settled"] == 0

    def test_local_delaunay_violation_turns_settling_off(self, monkeypatch):
        import repro.engine.kernels as kernels

        ties = kernels._neighbour_ties
        monkeypatch.setattr(
            kernels, "_neighbour_ties",
            lambda tri, circles: (*ties(tri, circles)[:2], True),
        )
        points = uniform_pair(50, 50, seed=3)
        report, candidate, verify = self._spans(*points)
        assert candidate.attrs["settle_off"] == "local-delaunay-violation"
        assert verify.counters["settled"] == 0
        assert report.pair_keys() == {r.key() for r in brute_force_rcj(*points)}


class TestTracedTopk:
    def test_topk_array_route_is_traced(self, pointsets):
        points_p, points_q = pointsets
        report = run_topk(points_p, points_q, 10, engine="array")
        root = report.trace
        assert root is not None and root.name == "topk"
        assert root.attrs["k"] == 10
        assert report.stage_seconds == stage_totals(root)

    def test_topk_rtree_route_counts_node_accesses(self, pointsets):
        points_p, points_q = pointsets
        report = run_topk(points_p, points_q, 5, engine="obj")
        root = report.trace
        assert root is not None
        assert root.counters["node-accesses"] == report.node_accesses


class TestTracedFamilies:
    def test_family_parallel_trace_has_worker_shards(self):
        points_p, points_q = uniform_pair(400, 400, seed=9)
        report = run_join(
            points_p,
            points_q,
            family="epsilon",
            eps=120.0,
            engine="array-parallel",
            workers=2,
            min_shard=32,
        )
        root = report.trace
        assert root is not None and root.name == "family-join"
        (pool,) = root.find("pool")
        assert len(pool.find("shard")) >= 2
        assert report.workers_used == 2
        assert report.stage_seconds == stage_totals(root)

    def test_family_serial_pipeline_is_traced(self):
        points_p, points_q = uniform_pair(200, 200, seed=10)
        report = run_join(
            points_p, points_q, family="knn", k=3, engine="array"
        )
        root = report.trace
        assert root is not None
        assert {"knn", "collect"} <= set(stage_totals(root))
        assert counter_totals(root)["verified"] == len(report.pairs)


class TestTracedMaterialize:
    @pytest.mark.parametrize(
        "args",
        [
            {"family": "knn", "k": 3, "engine": "array"},
            {"family": "epsilon", "eps": 150.0, "engine": "array"},
            {"family": "cij", "engine": "array"},
            {"family": "rcj", "engine": "array"},
            {
                "family": "knn", "k": 3, "engine": "array-parallel",
                "workers": 2, "min_shard": 32,
            },
        ],
    )
    def test_materialize_is_a_plain_span(self, args):
        points_p, points_q = uniform_pair(200, 210, seed=11)
        report = run_join(points_p, points_q, **args)
        (node,) = report.trace.find("materialize")
        assert node.kind != "stage"
        assert node.attrs["pairs"] == len(report.pairs)
        assert "materialize" not in report.stage_seconds
        assert report.stage_seconds == stage_totals(report.trace)


class TestTracedDynamicBatch:
    def test_batch_observation_stages_come_from_the_trace(
        self, tmp_path, monkeypatch
    ):
        from repro.calibration.observations import load_observations
        from repro.engine.planner import make_dynamic

        monkeypatch.setenv("REPRO_CALIBRATION_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
        points_p, points_q = uniform_pair(300, 300, seed=12)
        dyn = make_dynamic(points_p[:250], points_q, backend="auto")
        dyn.apply_batch(
            inserts=[(p, "P") for p in points_p[250:]],
            deletes=[(points_q[0], "Q")],
        )
        (obs,) = load_observations()
        assert obs["kind"] == "dynamic"
        totals = stage_totals(dyn.last_batch_trace)
        assert {"kill", "probe", "verify"} <= set(totals)
        assert obs["stage_seconds"] == {
            key: round(seconds, 6) for key, seconds in totals.items()
        }
