"""Engine ablation — pointwise INJ vs the vectorized array engine.

Not a figure from the paper: this bench motivates the
:mod:`repro.engine` subsystem by measuring the same join executed
point-at-a-time over Python objects (INJ) and in batch over numpy
arrays (the ``array`` engine), on 20k–100k-point-class workloads
(scaled by ``REPRO_SCALE`` like every other bench; run with
``REPRO_BENCH_N=20000`` for the full-size measurement).

Assertions: the two engines return identical pair sets, and — at
meaningful sizes — the vectorized engine wins by at least 5x wall
clock.  The array engine additionally covers a 100k-class size and a
clustered workload on its own, where pointwise execution would dominate
the suite's runtime.

:func:`test_clamped_hull_costs_like_uniform` guards the array engine
alone at a fixed 20k x 20k size: clustered data, whose clamped tails
lie on long collinear runs along the hull, must cost no more than
1.3x uniform data.
"""

from __future__ import annotations

import statistics

from repro.bench.runner import build_workload, run_algorithm
from repro.engine import run_join
from repro.evaluation.report import format_table

from benchmarks.conftest import emit

#: Sizes are paper-style cardinalities, divided by REPRO_SCALE.
COMPARED_SIZE = 20_000
ARRAY_ONLY_SIZE = 100_000

#: The speedup floor is only asserted at full-scale runs; scaled-down
#: smoke runs (REPRO_SCALE=64 -> a few hundred points) measure mostly
#: constant overheads.
MIN_SPEEDUP = 5.0
ASSERT_ABOVE_N = 2_000

#: Fixed size of the clamped-hull guard, whatever REPRO_BENCH_N says:
#: at 2,500 points both pairs cost about the same even without the
#: triangulation's frame.
CLAMPED_N = 20_000
#: Clustered over uniform array-engine wall clock (median of 3 runs
#: each); 1.67 with clamped runs on Qhull's hull, 0.88 without.
MAX_CLAMPED_RATIO = 1.3


def _run(datasets, sizes):
    rows = []
    checks = []
    for label, n, engines in sizes:
        if label == "clustered":
            points_p, points_q = datasets.clustered_pair(n, n, seed=180)
        else:
            points_p, points_q = datasets.uniform_pair(n, n, seed=160)
        if engines == ("ARRAY",):
            # No pointwise competitor: skip the (expensive, unused)
            # R-tree builds and run the engine directly.
            reports = {"ARRAY": run_join(points_p, points_q, algorithm="array")}
        else:
            workload = build_workload(points_q, points_p)
            reports = {name: run_algorithm(workload, name) for name in engines}
        for name, report in reports.items():
            rows.append(
                [
                    label,
                    n,
                    name,
                    report.result_count,
                    report.candidate_count,
                    f"{report.cpu_seconds:.3f}",
                ]
            )
        if "INJ" in reports and "ARRAY" in reports:
            checks.append((n, reports["INJ"], reports["ARRAY"]))
    return rows, checks


def test_engine_vectorized(benchmark, scale, datasets):
    n_small = scale.synthetic_n(COMPARED_SIZE)
    n_large = scale.synthetic_n(ARRAY_ONLY_SIZE)
    sizes = [
        ("uniform", n_small, ("INJ", "ARRAY")),
        ("clustered", n_small, ("INJ", "ARRAY")),
    ]
    if n_large != n_small:
        # Under REPRO_BENCH_N both sizes collapse to the override and
        # this row would just repeat row 1's ARRAY measurement.
        sizes.append(("uniform", n_large, ("ARRAY",)))
    rows, checks = benchmark.pedantic(
        lambda: _run(datasets, sizes), rounds=1, iterations=1
    )
    table = format_table(
        ["data", "n", "engine", "results", "candidates", "wall(s)"],
        rows,
        title=(
            "Engine ablation: pointwise INJ vs vectorized array engine "
            "(|P| = |Q| = n)"
        ),
    )
    emit("engine_vectorized", table)

    assert checks, "no INJ/ARRAY comparison ran"
    for n, inj_report, array_report in checks:
        # Identical result sets, always — speed means nothing otherwise.
        assert inj_report.pair_keys() == array_report.pair_keys()
        if n >= ASSERT_ABOVE_N:
            speedup = inj_report.cpu_seconds / max(
                array_report.cpu_seconds, 1e-9
            )
            assert speedup >= MIN_SPEEDUP, (
                f"array engine only {speedup:.1f}x faster than INJ at n={n}"
            )


def test_clamped_hull_costs_like_uniform(datasets):
    pairs = {
        "uniform": datasets.uniform_pair(CLAMPED_N, CLAMPED_N, seed=160),
        "clustered": datasets.clustered_pair(CLAMPED_N, CLAMPED_N, seed=180),
    }
    seconds = {
        label: statistics.median(
            run_join(*points, engine="array").cpu_seconds for _ in range(3)
        )
        for label, points in pairs.items()
    }
    ratio = seconds["clustered"] / seconds["uniform"]
    emit(
        "clamped_hull",
        format_table(
            ["data", "n", "median wall(s)"],
            [[label, CLAMPED_N, f"{s:.3f}"] for label, s in seconds.items()],
            title=f"Array engine, clustered / uniform = {ratio:.2f}",
        ),
    )
    assert ratio <= MAX_CLAMPED_RATIO, (
        f"clustered join costs {ratio:.2f}x the uniform one "
        f"(floor {MAX_CLAMPED_RATIO})"
    )
