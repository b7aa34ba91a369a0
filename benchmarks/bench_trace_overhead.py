"""Tracing overhead bench — the observability layer must be ~free.

Not a figure from the paper: this bench guards the overhead budget of
:mod:`repro.obs` on the 20k-point uniform canary (scaled by
``REPRO_SCALE`` like every other bench; run with ``REPRO_BENCH_N=20000``
for the full-size measurement).

Two budgets, asserted only at meaningful sizes where the join dominates
constant costs:

- **disabled** (< 2%): with ``REPRO_TRACE=0`` every seam
  (:func:`~repro.obs.trace.span`, :func:`~repro.obs.trace.add_counter`,
  :func:`~repro.obs.trace.stage_timer`) degrades to one attribute
  lookup.  Measured as a conservative bound — the micro-benchmarked
  per-call no-op cost times the number of seam crossings a traced run
  records, divided by the untraced wall time — because the seams are
  too cheap to resolve by differencing two wall-clock runs.
- **traced** (< 10%): the direct ratio of traced to untraced wall time,
  best-of-``REPRO_TRACE_BENCH_ROUNDS`` (default 3) runs each.

Results are emitted as the usual text table plus
``benchmarks/results/BENCH_trace_overhead.json`` so CI archives the
series.  Both modes must return identical pair sets — overhead numbers
mean nothing if observation changes the answer.
"""

from __future__ import annotations

import json
import os
import time

from repro.engine.planner import run_join
from repro.evaluation.report import format_table
from repro.obs.trace import add_counter, span, stage_timer, trace

from benchmarks.conftest import RESULTS_DIR, emit

#: Paper-style canary cardinality, divided by REPRO_SCALE.
CANARY_SIZE = 20_000

MAX_DISABLED_OVERHEAD = 0.02
MAX_TRACED_OVERHEAD = 0.10

#: Budgets are asserted only at full-size runs; scaled-down smoke runs
#: time mostly interpreter constants and fixture setup.
ASSERT_ABOVE_N = 2_000

ROUNDS = int(os.environ.get("REPRO_TRACE_BENCH_ROUNDS", "3"))

#: Iterations for the no-op seam micro-benchmark.
NOOP_ITERS = 50_000


def _best_of(fn, rounds):
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best, result = dt, out
    return best, result


def _noop_seam_seconds() -> float:
    """Per-call cost of one disabled instrumentation seam, averaged
    over the three seam kinds (no active trace on this thread)."""
    t0 = time.perf_counter()
    for _ in range(NOOP_ITERS):
        with span("x"):
            pass
        with stage_timer("x"):
            pass
        add_counter("x")
    return (time.perf_counter() - t0) / (3 * NOOP_ITERS)


def _seam_crossings(root) -> int:
    """Instrumentation events a traced run recorded: one per span plus
    one per counter key bumped on it (a lower bound on calls, an upper
    bound on distinct code paths — good enough for a budget check)."""
    return sum(1 + len(node.counters) for node in root.walk())


def test_trace_overhead(benchmark, scale, datasets):
    n = scale.synthetic_n(CANARY_SIZE)
    points_p, points_q = datasets.uniform_pair(n, n, seed=230)

    def _join():
        return run_join(points_p, points_q, engine="array")

    old = os.environ.get("REPRO_TRACE")

    def _measure():
        os.environ["REPRO_TRACE"] = "0"
        t_disabled, untraced = _best_of(_join, ROUNDS)
        os.environ["REPRO_TRACE"] = "1"
        t_traced, traced = _best_of(_join, ROUNDS)
        # Verify the kill switch actually switched.
        assert untraced.trace is None and traced.trace is not None
        os.environ["REPRO_TRACE"] = "0"
        noop = _noop_seam_seconds()
        return t_disabled, t_traced, untraced, traced, noop

    try:
        t_disabled, t_traced, untraced, traced, noop = benchmark.pedantic(
            _measure, rounds=1, iterations=1
        )
    finally:
        if old is None:
            os.environ.pop("REPRO_TRACE", None)
        else:
            os.environ["REPRO_TRACE"] = old

    crossings = _seam_crossings(traced.trace)
    disabled_overhead = (crossings * noop) / max(t_disabled, 1e-9)
    traced_overhead = t_traced / max(t_disabled, 1e-9) - 1.0

    table = format_table(
        ["n", "spans", "seams", "off(s)", "on(s)", "off_ovh", "on_ovh"],
        [[
            n,
            len(traced.trace),
            crossings,
            f"{t_disabled:.4f}",
            f"{t_traced:.4f}",
            f"{disabled_overhead:.2%}",
            f"{traced_overhead:+.2%}",
        ]],
        title=(
            "Tracing overhead on the uniform canary (array engine, "
            f"best of {ROUNDS})"
        ),
    )
    emit("trace_overhead", table)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_trace_overhead.json"), "w"
    ) as f:
        json.dump(
            {
                "n": n,
                "rounds": ROUNDS,
                "spans": len(traced.trace),
                "seam_crossings": crossings,
                "noop_seam_seconds": noop,
                "disabled_wall_seconds": t_disabled,
                "traced_wall_seconds": t_traced,
                "disabled_overhead": disabled_overhead,
                "traced_overhead": traced_overhead,
                "budget": {
                    "disabled": MAX_DISABLED_OVERHEAD,
                    "traced": MAX_TRACED_OVERHEAD,
                },
                "pairs_identical": (
                    untraced.pair_keys() == traced.pair_keys()
                ),
                "asserted": n >= ASSERT_ABOVE_N,
            },
            f,
            indent=2,
        )

    # Observation must never change the answer, at any size.
    assert untraced.pair_keys() == traced.pair_keys()

    if n >= ASSERT_ABOVE_N:
        assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
            f"disabled seams cost {disabled_overhead:.2%} of the "
            f"untraced run (budget {MAX_DISABLED_OVERHEAD:.0%})"
        )
        assert traced_overhead < MAX_TRACED_OVERHEAD, (
            f"tracing added {traced_overhead:.2%} wall time "
            f"(budget {MAX_TRACED_OVERHEAD:.0%})"
        )
