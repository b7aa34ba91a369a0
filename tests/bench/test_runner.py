"""Unit tests for the benchmark workload runner."""

import pytest

from repro.bench.runner import (
    ALGORITHMS,
    ENGINE_ROWS,
    BenchScale,
    build_workload,
    run_algorithm,
    run_all_algorithms,
    smoke,
)
from repro.datasets.synthetic import uniform


@pytest.fixture
def workload():
    return build_workload(
        uniform(200, seed=1), uniform(250, seed=2, start_oid=200)
    )


class TestBuildWorkload:
    def test_trees_share_buffer(self, workload):
        assert workload.tree_q.buffer is workload.buffer
        assert workload.tree_p.buffer is workload.buffer

    def test_buffer_fraction(self):
        w = build_workload(
            uniform(2000, seed=1),
            uniform(2000, seed=2, start_oid=5000),
            buffer_fraction=0.5,
        )
        total = w.tree_q.disk.num_pages + w.tree_p.disk.num_pages
        assert w.buffer.capacity == int(total * 0.5)

    def test_reset_clears_counters(self, workload):
        run_algorithm(workload, "OBJ")
        workload.reset()
        assert workload.buffer.stats.page_faults == 0
        assert workload.tree_q.node_accesses == 0

    def test_set_buffer_fraction(self, workload):
        workload.set_buffer_fraction(1.0)
        total = workload.tree_q.disk.num_pages + workload.tree_p.disk.num_pages
        assert workload.buffer.capacity == total


class TestRunAlgorithm:
    def test_unknown_algorithm(self, workload):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_algorithm(workload, "FAST")

    def test_all_algorithms_registered(self):
        assert set(ALGORITHMS) == {"INJ", "BIJ", "OBJ"}

    def test_results_agree(self, workload):
        reports = run_all_algorithms(workload)
        keys = {name: r.pair_keys() for name, r in reports.items()}
        assert keys["INJ"] == keys["BIJ"] == keys["OBJ"]

    def test_fresh_counters_per_run(self, workload):
        first = run_algorithm(workload, "OBJ")
        second = run_algorithm(workload, "OBJ")
        # Counter deltas are per-run, not cumulative.
        assert second.node_accesses == pytest.approx(first.node_accesses, rel=0.01)

    def test_engine_rows_registered(self):
        assert set(ENGINE_ROWS) == {"ARRAY", "PARALLEL", "AUTO"}

    def test_parallel_row_agrees_with_obj(self, workload):
        obj = run_algorithm(workload, "OBJ")
        par = run_algorithm(workload, "PARALLEL", workers=2, min_shard=32)
        assert par.pair_keys() == obj.pair_keys()
        # The bulk RCJ does not shard: array-parallel runs the serial
        # pipeline in-process.
        assert par.algorithm == "ARRAY"
        assert par.workers_used == 1
        assert par.node_accesses == 0  # memory backend: no R-tree touched

    def test_auto_row_agrees_and_carries_plan(self, workload):
        obj = run_algorithm(workload, "OBJ")
        auto = run_algorithm(workload, "AUTO", workers=2)
        assert auto.pair_keys() == obj.pair_keys()
        assert auto.plan is not None


class TestSmoke:
    def test_smoke_passes_at_small_n(self, capsys):
        assert smoke(n=300, workers=2) == 0
        out = capsys.readouterr().out
        assert "passed" in out
        for name in ("OBJ", "ARRAY", "PARALLEL", "AUTO"):
            assert name in out


class TestBenchScale:
    def test_synthetic_n_scaling(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_N", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "100")
        scale = BenchScale()
        assert scale.synthetic_n(200_000) == 2000

    def test_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_N", "123")
        scale = BenchScale()
        assert scale.synthetic_n(200_000) == 123

    def test_floor(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_N", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "10000000")
        assert BenchScale().synthetic_n(200_000) == 64
