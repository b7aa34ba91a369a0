"""Workload construction and algorithm execution for the benches.

A :class:`Workload` bundles the two datasets, their bulk-loaded R-trees
and the shared LRU buffer (sized as a fraction of the summed tree sizes,
paper default 1 %).  :func:`run_algorithm` runs one bench row through
the unified planner with fresh counters so each measurement is
independent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.pairs import JoinReport
from repro.geometry.point import Point
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree
from repro.storage.buffer import BufferManager, buffer_for_trees
from repro.storage.disk import DEFAULT_PAGE_SIZE

#: Paper default: buffer = 1 % of the sum of both tree sizes.
DEFAULT_BUFFER_FRACTION = 0.01

#: The paper's three R-tree algorithms: bench label -> run_join
#: algorithm name.
ALGORITHMS = {"INJ": "inj", "BIJ": "bij", "OBJ": "obj"}


@dataclass
class BenchScale:
    """Scale knobs shared by all benches.

    ``REPRO_SCALE`` divides the paper's dataset cardinalities (default
    64, which keeps the full bench suite under ~10 minutes on a laptop;
    lower values increase fidelity); ``REPRO_BENCH_N`` overrides the
    base synthetic size directly.
    """

    scale: int = field(
        default_factory=lambda: int(os.environ.get("REPRO_SCALE", "64"))
    )

    def synthetic_n(self, paper_n: int) -> int:
        """Scale a paper cardinality, honouring ``REPRO_BENCH_N``."""
        override = os.environ.get("REPRO_BENCH_N")
        if override:
            return int(override)
        return max(64, paper_n // self.scale)


@dataclass
class Workload:
    """Two indexed datasets plus their shared buffer."""

    points_q: list[Point]
    points_p: list[Point]
    tree_q: RTree
    tree_p: RTree
    buffer: BufferManager

    def reset(self) -> None:
        """Clear buffer contents and all counters before a measurement."""
        self.buffer.clear()
        self.buffer.stats.reset()
        self.tree_q.reset_stats()
        self.tree_p.reset_stats()

    def set_buffer_fraction(self, fraction: float) -> None:
        """Resize the shared buffer to ``fraction`` of total tree size."""
        total_pages = self.tree_q.disk.num_pages + self.tree_p.disk.num_pages
        self.buffer.resize(max(1, int(total_pages * fraction)))


def build_workload(
    points_q: Sequence[Point],
    points_p: Sequence[Point],
    buffer_fraction: float = DEFAULT_BUFFER_FRACTION,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> Workload:
    """Index both datasets (STR bulk load) behind one shared buffer."""
    tree_q = bulk_load(list(points_q), page_size=page_size, name="TQ")
    tree_p = bulk_load(list(points_p), page_size=page_size, name="TP")
    buffer = buffer_for_trees([tree_q, tree_p], buffer_fraction)
    tree_q.attach_buffer(buffer)
    tree_p.attach_buffer(buffer)
    return Workload(list(points_q), list(points_p), tree_q, tree_p, buffer)


#: The vectorized engine rows: bench label -> run_join algorithm name.
ENGINE_ROWS = {
    "ARRAY": "array",
    "PARALLEL": "array-parallel",
    "AUTO": "auto",
}

#: Ordered-browsing rows (pass ``k=``): bench label -> run_topk engine.
TOPK_ROWS = {
    "TOPK-ARRAY": "array",
    "TOPK-OBJ": "obj",
    "TOPK-AUTO": "auto",
}


def run_algorithm(workload: Workload, name: str, **kwargs) -> JoinReport:
    """Run one bench row with fresh counters.

    Every row goes through the unified planner with the workload
    riding along, so the R-tree routes (``INJ``/``BIJ``/``OBJ``, an
    ``AUTO`` plan that lands on OBJ, ``TOPK-OBJ``) measure against the
    bench's own trees and buffer.  ``ARRAY`` (vectorized engine),
    ``PARALLEL`` (pass ``workers=``) and ``AUTO`` (cost-based planner)
    carry no I/O-model figures but the same result pairs.  The rows of
    :data:`ALGORITHMS` and :data:`ENGINE_ROWS` dispatch through
    :func:`repro.engine.run_join`; ``TOPK-ARRAY``/``TOPK-OBJ``/
    ``TOPK-AUTO`` (pass ``k=``) through :func:`repro.engine.run_topk`.
    """
    # Imported lazily: the planner builds Workloads through this module
    # for the R-tree routes.
    from repro.engine.planner import run_join, run_topk

    workload.reset()
    points = (workload.points_p, workload.points_q)
    if name in TOPK_ROWS:
        return run_topk(
            *points, engine=TOPK_ROWS[name], workload=workload, **kwargs
        )
    algorithm = ALGORITHMS.get(name, ENGINE_ROWS.get(name))
    if algorithm is None:
        raise ValueError(
            f"unknown algorithm {name!r}; expected one of "
            f"{sorted(ALGORITHMS) + sorted(ENGINE_ROWS) + sorted(TOPK_ROWS)}"
        )
    return run_join(
        *points, algorithm=algorithm, workload=workload, **kwargs
    )


def run_all_algorithms(workload: Workload, **kwargs) -> dict[str, JoinReport]:
    """Run INJ, BIJ and OBJ on the same workload."""
    return {name: run_algorithm(workload, name, **kwargs) for name in ALGORITHMS}


# ----------------------------------------------------------------------
# smoke entry point (CI canary)
# ----------------------------------------------------------------------

def smoke(
    n: int = 4000,
    workers: int = 2,
    topk: bool = False,
    families: bool = False,
) -> int:
    """Cross-engine smoke run: OBJ vs ARRAY vs PARALLEL vs AUTO.

    A bounded-size canary for CI: builds one uniform workload, runs the
    R-tree reference and every planner-dispatched engine (the parallel
    row through a real worker pool), and fails on any pair-set
    divergence.  Catches parallel-path regressions and pool deadlocks
    (CI wraps the invocation in a timeout) in well under a minute.

    ``topk=True`` additionally runs the ordered-browsing canary: every
    ``run_topk`` engine's first-k prefix must equal the canonically
    sorted full join, key for key.

    ``families=True`` additionally runs the join-family canary: every
    family pipeline (ε / kNN / kcp / CIJ) against its pointwise oracle,
    the shardable ones through a real worker pool as well.

    Returns a process exit code (0 = all engines agree).
    """
    from repro.datasets.fixtures import uniform_pair
    from repro.parallel.shards import DEFAULT_MIN_SHARD

    points_p, points_q = uniform_pair(n, n + n // 4, seed=11)
    workload = build_workload(points_q, points_p)
    # A shard floor below |Q|/workers forces a real multi-shard pool
    # even at smoke sizes.
    min_shard = max(64, min(DEFAULT_MIN_SHARD, len(points_q) // (2 * workers)))
    reports = {
        "OBJ": run_algorithm(workload, "OBJ"),
        "ARRAY": run_algorithm(workload, "ARRAY"),
        "PARALLEL": run_algorithm(
            workload, "PARALLEL", workers=workers, min_shard=min_shard
        ),
        "AUTO": run_algorithm(workload, "AUTO", workers=workers),
    }
    reference = reports["OBJ"].pair_keys()
    failed = False
    for name, report in reports.items():
        agree = report.pair_keys() == reference
        failed |= not agree
        plan = getattr(report, "plan", None)
        chosen = f" -> {plan.engine}x{plan.workers}" if plan else ""
        print(
            f"{name:>8}{chosen}: {report.result_count} pairs, "
            f"{report.cpu_seconds:.3f}s wall "
            f"[{'ok' if agree else 'DIVERGED'}]"
        )
    if topk:
        failed |= _smoke_topk(workload, reports["ARRAY"], k=50)
    if families:
        failed |= _smoke_families(points_p, points_q, workers, min_shard)
    print(f"smoke: |P|={n} |Q|={n + n // 4} workers={workers} "
          f"{'FAILED' if failed else 'passed'}")
    return 1 if failed else 0


def _smoke_topk(workload: Workload, full: JoinReport, k: int) -> bool:
    """Top-k canary: each engine's prefix vs the sorted full join.

    Returns True on divergence (the caller's failure flag convention).
    """
    from repro.engine.streaming import pair_order_key, sort_pairs_by_diameter

    want = [
        pair_order_key(p) for p in sort_pairs_by_diameter(full.pairs)[:k]
    ]
    failed = False
    for name in TOPK_ROWS:
        report = run_algorithm(workload, name, k=k)
        got = [pair_order_key(p) for p in report.pairs]
        agree = got == want
        failed |= not agree
        plan = getattr(report, "plan", None)
        chosen = f" -> {plan.engine}" if plan else ""
        print(
            f"{name:>10}{chosen}: k={k}, {report.result_count} pairs, "
            f"{report.cpu_seconds:.3f}s wall "
            f"[{'ok' if agree else 'DIVERGED'}]"
        )
    return failed


def _smoke_families(
    points_p: list[Point],
    points_q: list[Point],
    workers: int,
    min_shard: int,
) -> bool:
    """Join-family canary: each pipeline vs its pointwise oracle.

    Runs every family of :data:`repro.engine.families.FAMILY_NAMES`
    (except the RCJ itself, which the main smoke rows cover) on the
    smoke workload: the serial pipeline always, plus a real worker pool
    for the shardable families.  kcp compares the exact canonical order
    (ties included); the set-valued families compare key sets.  Returns
    True on divergence (the caller's failure flag convention).
    """
    from repro.engine.families import SHARDABLE_FAMILIES
    from repro.engine.planner import run_join

    # Both CIJ paths build the same Voronoi cells in Python, which
    # dominates at smoke scale; cap its input so the canary stays fast
    # while still covering the pipeline.
    cij_p, cij_q = points_p[:600], points_q[:600]
    cases = [
        ("epsilon", {"eps": 25.0}, points_p, points_q),
        ("knn", {"k": 4}, points_p, points_q),
        ("kcp", {"k": 100}, points_p, points_q),
        ("cij", {}, cij_p, cij_q),
    ]
    failed = False
    for family, params, fam_p, fam_q in cases:
        oracle = run_join(
            fam_p, fam_q, family=family, engine="pointwise", **params
        )
        runs = {"array": run_join(
            fam_p, fam_q, family=family, engine="array", **params
        )}
        if family in SHARDABLE_FAMILIES:
            runs["array-parallel"] = run_join(
                fam_p,
                fam_q,
                family=family,
                engine="array-parallel",
                workers=workers,
                min_shard=min_shard,
                **params,
            )
        want = [pair.key() for pair in oracle.pairs]
        for engine, report in runs.items():
            got = [pair.key() for pair in report.pairs]
            agree = got == want
            failed |= not agree
            print(
                f"{family:>8}/{engine}: {report.result_count} pairs, "
                f"{report.cpu_seconds:.3f}s wall "
                f"(oracle {oracle.cpu_seconds:.3f}s) "
                f"[{'ok' if agree else 'DIVERGED'}]"
            )
    return failed


def smoke_calibration(n: int = 1200) -> int:
    """Calibration-loop canary: sweep → refit → calibrated planning.

    Runs the bounded seed sweep, refits a profile for this host,
    persists it, and checks that the planner's next ``auto`` decision
    for a pooled family (the kNN join; the bulk RCJ does not pool) is
    made *from that profile* (predicted seconds attached, the
    calibrated-comparison reason present) and that the predicted
    ranking of serial vs parallel agrees with what the sweep measured.
    Requires a writable ``REPRO_CALIBRATION_DIR`` (CI points it at a
    workspace-local directory).
    """
    from repro.calibration import load_observations
    from repro.calibration.profile import save_profile
    from repro.calibration.refit import refit_profile
    from repro.calibration.sweep import _SWEEP_KNN_K, run_calibration_sweep
    from repro.datasets.fixtures import uniform_pair
    from repro.parallel.costmodel import choose_family_plan

    recorded = run_calibration_sweep(n, rounds=1, echo=print)
    profile = refit_profile()
    path = save_profile(profile)
    print(f"calibration smoke: {recorded} observations -> {path}")

    points_p, points_q = uniform_pair(n, n + n // 4, seed=7)
    plan = choose_family_plan(
        "knn", points_p, points_q, k=_SWEEP_KNN_K, workers=2
    )
    failed = False
    if plan.predicted_seconds is None:
        print("calibration smoke: plan carries no predicted seconds [FAILED]")
        failed = True
    if not any("calibrated" in reason for reason in plan.reasons):
        print("calibration smoke: plan reasons lack the calibrated "
              "comparison [FAILED]")
        failed = True

    # The calibrated pick must agree with the sweep's own measurements:
    # mean measured seconds per kNN-join engine, serial vs parallel.
    walls: dict[str, list[float]] = {}
    for obs in load_observations():
        if obs.get("workload") == "family:knn":
            walls.setdefault(obs["engine"], []).append(
                float(obs["total_seconds"])
            )
    if walls:
        fastest = min(walls, key=lambda e: sum(walls[e]) / len(walls[e]))
        agree = plan.engine == fastest
        failed |= not agree
        print(
            f"calibration smoke: planner picked {plan.engine}, sweep "
            f"measured {fastest} fastest [{'ok' if agree else 'FAILED'}]"
        )
    print(f"calibration smoke: {'FAILED' if failed else 'passed'}")
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.bench.runner`` — currently the smoke canary."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.bench.runner",
        description="benchmark workload runner (CI smoke entry point)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the cross-engine smoke canary and exit",
    )
    parser.add_argument(
        "--calibration",
        action="store_true",
        help="run the calibration-loop canary (sweep, refit, "
        "profile-aware planning) and exit",
    )
    parser.add_argument(
        "--topk",
        action="store_true",
        help="also run the ordered-browsing (top-k) canary",
    )
    parser.add_argument(
        "--families",
        action="store_true",
        help="also run the join-family (eps/knn/kcp/cij) canary",
    )
    parser.add_argument("--n", type=int, default=4000,
                        help="smoke |P| (|Q| is 1.25x)")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    if args.calibration:
        return smoke_calibration(n=min(args.n, 1200))
    if args.smoke:
        return smoke(
            n=args.n,
            workers=args.workers,
            topk=args.topk,
            families=args.families,
        )
    parser.error("nothing to do: pass --smoke or --calibration")
    return 2  # pragma: no cover


if __name__ == "__main__":
    import sys

    sys.exit(main())
