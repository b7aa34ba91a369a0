"""Streamed top-k bench — ordered browsing vs full-join-then-sort.

Not a figure from the paper: this bench motivates the top-k RCJ
pipeline (the ``rcj`` family with ``k`` in
:mod:`repro.engine.families`).  The tourist-recommendation application
wants the ``k`` smallest-diameter pairs; without the pipeline the
array engine could only materialize the whole join and sort it.  The
pipeline enumerates candidate pairs in expanding radius bands, streams
each band in canonical-order chunks and stops at the chunk that brings
the ``k``-th verified pair.

Assertions: the streamed prefix is byte-identical (canonical order key)
to the sorted full join for every measured ``k``, and — at full-size
runs (``REPRO_BENCH_N=20000``) — ``k=100`` beats full-join-then-sort by
at least 10x, the asserted floor.  The series is also archived
as ``benchmarks/results/BENCH_topk.json`` (``mode="topk"`` rows of the
standard scaling document).
"""

from __future__ import annotations

import os
import time

from repro.engine import run_join, run_topk
from repro.engine.streaming import pair_order_key, sort_pairs_by_diameter
from repro.evaluation.report import format_table
from repro.evaluation.scaling import ScalePoint, scaling_summary, write_json

from benchmarks.conftest import RESULTS_DIR, emit

#: The acceptance-criterion configuration: uniform 20k x 20k, k=100.
PAPER_N = 20_000

K_VALUES = (10, 100, 1000)

#: The acceptance floor for k=100 at full size...
MIN_SPEEDUP_AT_100 = 10.0

#: ...asserted only at the size the criterion names (scaled-down smoke
#: runs mostly measure fixed setup costs on both sides).
ASSERT_AT_N = 20_000


def _run(datasets, n: int):
    points_p, points_q = datasets.uniform_pair(n, n, seed=230)

    t0 = time.perf_counter()
    full = run_join(points_p, points_q, engine="array")
    ref = sort_pairs_by_diameter(full.pairs)
    t_full = time.perf_counter() - t0

    rows = []
    # One mode string per configuration: ScalePoint carries no k, and
    # same-mode rows would alias each other's workers=1 baseline.
    series = [ScalePoint(n, 1, t_full, len(ref), mode="join-full")]
    for k in K_VALUES:
        t0 = time.perf_counter()
        report = run_topk(points_p, points_q, k, engine="array")
        wall = time.perf_counter() - t0
        want = ref[: min(k, len(ref))]
        assert [pair_order_key(p) for p in report.pairs] == [
            pair_order_key(p) for p in want
        ], f"top-{k} prefix diverged from the sorted full join"
        series.append(
            ScalePoint(n, 1, wall, len(report.pairs), mode=f"topk-k{k}")
        )
        rows.append(
            [
                k,
                len(report.pairs),
                report.candidate_count,
                f"{wall:.3f}",
                f"{t_full:.3f}",
                f"{t_full / max(wall, 1e-9):.1f}x",
            ]
        )
    return rows, series, t_full


def test_topk_streaming(benchmark, scale, datasets):
    n = scale.synthetic_n(PAPER_N)
    rows, series, _t_full = benchmark.pedantic(
        lambda: _run(datasets, n), rounds=1, iterations=1
    )
    table = format_table(
        ["k", "pairs", "candidates", "topk wall(s)", "full+sort(s)", "speedup"],
        rows,
        title=f"Streamed top-k vs full-join-then-sort, uniform |P|=|Q|={n}",
    )
    emit("topk_stream", table)
    write_json(
        os.path.join(RESULTS_DIR, "BENCH_topk.json"),
        scaling_summary(
            series, os.cpu_count() or 1, True, benchmark="topk_streaming"
        ),
    )

    # Laziness shape: work grows with k (candidates are monotone).
    cands = [r[2] for r in rows]
    assert cands == sorted(cands)

    # The acceptance floor, at the size the criterion names.
    if n >= ASSERT_AT_N:
        for r in rows:
            if r[0] == 100:
                speedup = float(r[5].rstrip("x"))
                assert speedup >= MIN_SPEEDUP_AT_100, (
                    f"k=100 only {speedup:.1f}x over full-join-then-sort "
                    f"(floor {MIN_SPEEDUP_AT_100}x)"
                )
