"""Command-line interface.

Usage (installed as ``python -m repro``)::

    python -m repro generate --kind uniform -n 1000 --seed 1 -o p.txt
    python -m repro generate --kind gaussian -n 1000 -w 8 --seed 2 -o q.txt
    python -m repro join p.txt q.txt --engine obj -o pairs.txt
    python -m repro join p.txt q.txt --engine array -o pairs.txt
    python -m repro join p.txt q.txt --engine auto --workers 4 --explain
    python -m repro join p.txt q.txt --top-k 10
    python -m repro join p.txt q.txt --family epsilon --param 50 --explain
    python -m repro join p.txt q.txt --family knn --param 4 --engine array
    python -m repro selfjoin p.txt -o postboxes.txt
    python -m repro topk p.txt q.txt -k 10 --engine array
    python -m repro join p.txt q.txt --engine auto --trace run.trace.jsonl
    python -m repro trace show run.trace.jsonl
    python -m repro trace export run.trace.jsonl -o run.perfetto.json
    python -m repro resemblance p.txt q.txt --join eps --param 50
    python -m repro stream --objects 2000 --ticks 100 --batch 64 --verify
    python -m repro stream --smoke
    python -m repro calibrate --n 4000 --rounds 2
    python -m repro calibrate --smoke

Pointset files are plain text (``oid x y`` per line, see
:mod:`repro.datasets.io`); the join output has one
``p_oid q_oid center_x center_y radius`` line per result pair.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.selfjoin import self_rcj
from repro.datasets.io import load_points, save_points
from repro.datasets.synthetic import gaussian_clusters, uniform
from repro.engine import ALGORITHM_NAMES, run_join


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _write_pairs(pairs, out) -> None:
    for pair in pairs:
        cx, cy = pair.center
        out.write(
            f"{pair.p.oid} {pair.q.oid} {cx!r} {cy!r} {pair.radius!r}\n"
        )


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "uniform":
        points = uniform(args.n, seed=args.seed, start_oid=args.start_oid)
    else:
        points = gaussian_clusters(
            args.n, w=args.clusters, seed=args.seed, start_oid=args.start_oid
        )
    save_points(points, args.output)
    print(f"wrote {len(points)} points to {args.output}")
    return 0


def _rcj_algorithm(args: argparse.Namespace) -> str:
    """The RCJ's algorithm from ``--engine`` (``pointwise`` and no flag
    mean the paper's OBJ)."""
    return "obj" if args.engine in (None, "pointwise") else args.engine


def _write_output(pairs, args: argparse.Namespace) -> None:
    if args.output:
        with open(args.output, "w") as f:
            _write_pairs(pairs, f)
    else:
        _write_pairs(pairs, sys.stdout)


def _emit_trace_diagnostics(report, args: argparse.Namespace) -> None:
    """Write the run's trace sink and/or render its tree.

    Everything goes to stderr (or the ``--trace`` file): stdout is
    reserved for the machine-parseable pair lines, so piping them stays
    safe whatever diagnostics are enabled.
    """
    root = getattr(report, "trace", None)
    trace_path = getattr(args, "trace", None)
    if root is None:
        if trace_path:
            print(
                "no trace captured (tracing disabled via REPRO_TRACE?)",
                file=sys.stderr,
            )
        return
    if trace_path:
        from repro.obs.export import write_jsonl

        n = write_jsonl(root, trace_path)
        print(f"trace: {n} spans appended to {trace_path}", file=sys.stderr)
    if args.explain:
        from repro.obs.export import render_tree

        print(render_tree(root), file=sys.stderr)


def _join_and_emit(
    args: argparse.Namespace, request, label: str, **selection
) -> int:
    """Run one join through :func:`run_join` and write everything the
    CLI shows of it.

    ``selection`` is the ``algorithm=`` (RCJ) or ``engine=`` (other
    families) the command asked for.  With ``--explain``, the plan goes
    to stderr: the one ``--engine auto`` *would* pick before a
    pinned-engine run, the one that ran (with its measurements) after
    an auto run — never planned twice.  Then the trace diagnostics, the
    pair lines (``-o`` or stdout) and the one-line stderr summary.  A
    selection the planner refuses (a bulk-only algorithm with
    ``--top-k``, an RCJ algorithm for another family) exits 2.
    """
    from repro.engine.families import explain_family, explain_plan

    points_p = load_points(args.pointset_p)
    points_q = load_points(args.pointset_q)
    params = dict(eps=request.eps, k=request.k)
    if args.explain and "auto" not in selection.values():
        print(
            explain_family(
                points_p, points_q, request.family, workers=request.workers,
                **params,
            ),
            file=sys.stderr,
        )
    try:
        report = run_join(
            points_p,
            points_q,
            family=request.family,
            workers=request.workers,
            **params,
            **selection,
        )
    except ValueError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    if args.explain and report.plan is not None:
        print(
            explain_plan(report.plan, request.family, **params),
            file=sys.stderr,
        )
    _emit_trace_diagnostics(report, args)
    _write_output(report.pairs, args)
    print(
        f"{label}({args.pointset_p} x {args.pointset_q}) via "
        f"{report.algorithm.lower()}: {len(report.pairs)} pairs",
        file=sys.stderr,
    )
    return 0


def _family_param(args: argparse.Namespace) -> tuple[float | None, int | None]:
    """``(eps, k)`` parsed from ``--param`` for the selected family (the
    request validates them)."""
    if args.param is None:
        return None, None
    if args.family == "epsilon":
        return float(args.param), None
    if args.family in ("knn", "kcp"):
        try:
            return None, int(args.param)
        except ValueError:
            return None, float(args.param)
    raise ValueError(f"--family {args.family} takes no --param")


def _cmd_join(args: argparse.Namespace) -> int:
    from repro.engine.request import JoinRequest

    topk = args.top_k is not None
    if topk and args.family != "rcj":
        print(
            "--top-k applies to --family rcj only "
            "(use --family kcp for ordered closest pairs)",
            file=sys.stderr,
        )
        return 2
    try:
        eps, k = _family_param(args)
        if topk:
            k = args.top_k
        request = JoinRequest(args.family, k=k, eps=eps, workers=args.workers)
    except ValueError as exc:
        print(f"repro join: {exc}", file=sys.stderr)
        return 2
    if args.family == "rcj":
        label = f"top-{k} RCJ" if topk else "RCJ"
        return _join_and_emit(
            args, request, label, algorithm=_rcj_algorithm(args)
        )
    # Families default to cost-based planning; an explicit --engine
    # (including 'pointwise', the reference oracle) pins the path.
    return _join_and_emit(
        args, request, args.family, engine=args.engine or "auto"
    )


def _cmd_selfjoin(args: argparse.Namespace) -> int:
    points = load_points(args.pointset)
    method = _rcj_algorithm(args)
    if args.explain:
        # The selfjoin helper returns deduplicated pairs, not a report,
        # so the plan is always computed here — for "auto" it is the
        # exact plan the run will use (the planner is deterministic and
        # self_rcj forwards the same workers value).
        from repro.engine.families import explain_family

        print(
            explain_family(points, points, "rcj", workers=args.workers),
            file=sys.stderr,
        )
    pairs = self_rcj(points, algorithm=method, workers=args.workers)
    _write_output(pairs, args)
    print(
        f"self-RCJ({args.pointset}) via {method}: {len(pairs)} pairs",
        file=sys.stderr,
    )
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    from repro.engine.request import JoinRequest

    request = JoinRequest(k=args.k, workers=args.workers)
    return _join_and_emit(
        args, request, f"top-{args.k} RCJ", algorithm=args.engine
    )


def _cmd_resemblance(args: argparse.Namespace) -> int:
    from repro.core.gabriel import gabriel_rcj
    from repro.evaluation.resemblance import precision_recall
    from repro.joins.closest_pairs import k_closest_pairs
    from repro.joins.common_influence import common_influence_join
    from repro.joins.epsilon import epsilon_join_arrays
    from repro.joins.knn import knn_join
    from repro.rtree.bulk import bulk_load

    points_p = load_points(args.pointset_p)
    points_q = load_points(args.pointset_q)
    rcj_keys = {r.key() for r in gabriel_rcj(points_p, points_q)}

    if args.join in ("eps", "kcp", "knn") and args.param is None:
        print(f"--param is required for {args.join}", file=sys.stderr)
        return 2
    if args.join == "eps":
        other = epsilon_join_arrays(points_p, points_q, float(args.param))
    elif args.join == "kcp":
        tree_p = bulk_load(points_p, name="TP")
        tree_q = bulk_load(points_q, name="TQ")
        other = {
            (p.oid, q.oid)
            for _d, p, q in k_closest_pairs(tree_p, tree_q, int(args.param))
        }
    elif args.join == "knn":
        tree_q = bulk_load(points_q, name="TQ")
        other = {
            (p.oid, q.oid) for p, q in knn_join(points_p, tree_q, int(args.param))
        }
    else:  # cij — parameterless, like RCJ itself
        other = {
            (p.oid, q.oid)
            for p, q in common_influence_join(points_p, points_q)
        }

    prec, rec = precision_recall(other, rcj_keys)
    print(
        f"{args.join} vs RCJ: |RCJ|={len(rcj_keys)} |{args.join}|={len(other)} "
        f"precision={prec:.1f}% recall={rec:.1f}%"
    )
    return 0


def _cmd_trace_show(args: argparse.Namespace) -> int:
    """Render the trace trees recorded in a JSONL trace file."""
    from repro.obs.export import read_jsonl, render_tree

    roots = read_jsonl(args.trace_file)
    if not roots:
        print(f"no trace records in {args.trace_file}", file=sys.stderr)
        return 1
    for i, root in enumerate(roots):
        if len(roots) > 1:
            print(f"run {i}:")
        print(render_tree(root, max_depth=args.depth))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    """Export one recorded run as Chrome trace-event / Perfetto JSON."""
    import json

    from repro.obs.export import read_jsonl, to_chrome, validate_chrome

    roots = read_jsonl(args.trace_file)
    if not roots:
        print(f"no trace records in {args.trace_file}", file=sys.stderr)
        return 1
    try:
        root = roots[args.run]
    except IndexError:
        print(
            f"run {args.run} out of range ({len(roots)} recorded)",
            file=sys.stderr,
        )
        return 1
    doc = to_chrome(root)
    validate_chrome(doc)
    with open(args.output, "w") as f:
        json.dump(doc, f)
    print(
        f"wrote {len(doc['traceEvents'])} events to {args.output} "
        "(load at ui.perfetto.dev or chrome://tracing)",
        file=sys.stderr,
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Run the moving-objects stream against a dynamic RCJ backend.

    Builds a seeded :class:`repro.workloads.moving.FleetSimulator`,
    routes the initial populations through the planner
    (:func:`repro.engine.planner.make_dynamic`) and feeds the coalesced
    update batches to ``apply_batch``, reporting sustained updates/sec.
    ``--verify`` recomputes the join from scratch at the end and fails
    (exit 1) unless the maintained pair set is identical.  Stdout gets
    one machine-parseable summary line; everything else goes to stderr.
    """
    import time as _time

    from repro.engine.planner import make_dynamic
    from repro.workloads.moving import FleetSimulator

    objects, depots = args.objects, args.depots
    ticks, batch = args.ticks, args.batch
    verify = args.verify
    if args.smoke:
        objects = min(objects, 300)
        depots = min(depots, 300)
        ticks = min(ticks, 12)
        batch = min(batch, 32)
        verify = True

    if args.explain:
        from repro.parallel.costmodel import choose_dynamic_backend

        backend, reason = choose_dynamic_backend(objects, depots, batch)
        print(f"plan: backend={backend}: {reason}", file=sys.stderr)

    sim = FleetSimulator(
        fleet=objects, depots=depots, seed=args.seed
    )
    points_p, points_q = sim.initial_points()
    dyn = make_dynamic(
        points_p, points_q, backend=args.backend, batch_size=batch
    )
    backend_name = type(dyn).__name__

    trace_spans = 0
    events = 0
    batches = 0
    t0 = _time.perf_counter()
    for update in sim.batch_stream(batch, ticks):
        dyn.apply_batch(update.inserts, update.deletes)
        events += update.events
        batches += 1
        root = getattr(dyn, "last_batch_trace", None)
        if args.trace and root is not None:
            from repro.obs.export import write_jsonl

            trace_spans += write_jsonl(root, args.trace)
    wall = _time.perf_counter() - t0
    rate = events / wall if wall > 0 else float("inf")

    verified = None
    if verify:
        from repro.engine import run_join

        cur_p, cur_q = sim.current_points()
        scratch = run_join(cur_p, cur_q, engine="array")
        verified = {p.key() for p in scratch.pairs} == dyn.pair_keys()
    if args.trace:
        print(
            f"trace: {trace_spans} spans appended to {args.trace}",
            file=sys.stderr,
        )
    stats = getattr(dyn, "maintenance_stats", None)
    if stats is not None:
        print(f"maintenance: {stats()}", file=sys.stderr)
    print(
        f"stream backend={backend_name} objects={objects} depots={depots} "
        f"ticks={ticks} batch={batch} batches={batches} events={events} "
        f"seconds={wall:.3f} updates_per_sec={rate:.0f} "
        f"pairs={len(dyn)} verified="
        + ("skipped" if verified is None else str(verified).lower())
    )
    if verified is False:
        print(
            "maintained result diverged from the from-scratch join",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    """Fit the planner's cost model from measured runs on this host.

    Runs the bounded forced-engine seed sweep
    (:func:`repro.calibration.sweep.run_calibration_sweep`), refits the
    per-host profile from every recorded observation, persists it, and
    prints the fitted constants.  After this, ``--engine auto`` plans
    by predicted seconds instead of static thresholds.
    """
    from repro.calibration import (
        calibration_dir,
        calibration_enabled,
        observations_path,
    )
    from repro.calibration.observations import reset_calibration
    from repro.calibration.profile import save_profile
    from repro.calibration.refit import refit_profile
    from repro.calibration.sweep import run_calibration_sweep

    if not calibration_enabled():
        print(
            "calibration is disabled (REPRO_CALIBRATION=0); unset it "
            "to record observations and fit a profile",
            file=sys.stderr,
        )
        return 1
    if args.reset:
        removed = reset_calibration()
        for path in removed:
            print(f"removed {path}", file=sys.stderr)
    if not args.refit_only:
        n = args.n
        rounds = args.rounds
        if args.smoke:
            n, rounds = min(n, 1200), 1
        recorded = run_calibration_sweep(
            n,
            rounds=rounds,
            max_workers=args.workers,
            echo=lambda line: print(f"  {line}", file=sys.stderr),
        )
        print(
            f"sweep recorded {recorded} observations in "
            f"{observations_path()}",
            file=sys.stderr,
        )
    try:
        profile = refit_profile()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    path = save_profile(profile)
    print(profile.describe())
    print(f"profile saved to {path}", file=sys.stderr)
    print(
        f"calibration store: {calibration_dir()} "
        "(override with REPRO_CALIBRATION_DIR)",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ring-constrained join over planar pointsets (EDBT 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic pointset file")
    gen.add_argument("--kind", choices=("uniform", "gaussian"), default="uniform")
    gen.add_argument("-n", type=int, required=True, help="number of points")
    gen.add_argument("-w", "--clusters", type=int, default=10,
                     help="cluster count (gaussian only)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--start-oid", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_generate)

    def add_engine_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--engine",
            choices=("pointwise",) + ALGORITHM_NAMES,
            default=None,
            help="the RCJ's algorithm (the paper's R-tree inj/bij/obj, "
            "the brute/gabriel comparators, the vectorized array "
            "engine, the sharded array-parallel engine or cost-based "
            "auto-selection; 'pointwise' is obj), or for --family "
            "joins pointwise (the reference oracle), array, "
            "array-parallel or auto (default: obj for the RCJ, auto "
            "for --family joins)",
        )
        cmd.add_argument(
            "--workers",
            type=_positive_int,
            default=None,
            metavar="N",
            help="worker threads for array-parallel/auto "
            "(default: all cores)",
        )
        cmd.add_argument(
            "--explain",
            action="store_true",
            help="print the cost-based planner's decision and estimates "
            "to stderr before running",
        )
        cmd.add_argument("-o", "--output", default=None)

    join = sub.add_parser(
        "join",
        help="spatial join of two pointset files "
        "(RCJ by default; --family selects the other paper joins)",
    )
    join.add_argument("pointset_p")
    join.add_argument("pointset_q")
    add_engine_args(join)
    join.add_argument(
        "--family",
        choices=("rcj", "epsilon", "knn", "kcp", "cij"),
        default="rcj",
        help="join family: ring-constrained (default), epsilon-distance, "
        "k-nearest-neighbour, k-closest-pairs, or common influence — "
        "non-rcj families run as engine pipelines via the planner",
    )
    join.add_argument(
        "--param",
        default=None,
        help="family parameter: eps distance (epsilon) or k (knn/kcp); "
        "rcj and cij take none",
    )
    join.add_argument(
        "--top-k",
        type=_positive_int,
        default=None,
        metavar="K",
        help="ordered browsing: only the K smallest-diameter RCJ pairs, "
        "in ascending order (engines obj, array, auto)",
    )
    join.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append this run's span tree to a JSONL trace file "
        "(inspect with 'repro trace show/export')",
    )
    join.set_defaults(func=_cmd_join)

    selfjoin = sub.add_parser("selfjoin", help="self-RCJ of one pointset file")
    selfjoin.add_argument("pointset")
    add_engine_args(selfjoin)
    selfjoin.set_defaults(func=_cmd_selfjoin)

    topk = sub.add_parser(
        "topk", help="smallest-diameter RCJ pairs (tourist recommendation)"
    )
    topk.add_argument("pointset_p")
    topk.add_argument("pointset_q")
    topk.add_argument("-k", type=int, required=True)
    topk.add_argument(
        "--engine",
        choices=("auto", "array", "obj", "pointwise"),
        default="auto",
        help="streamed array enumeration, the R-tree incremental "
        "distance join, or cost-based auto-selection (default)",
    )
    topk.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker budget forwarded to the planner",
    )
    topk.add_argument(
        "--explain",
        action="store_true",
        help="print the top-k planner's decision to stderr",
    )
    topk.add_argument("-o", "--output", default=None)
    topk.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append this run's span tree to a JSONL trace file",
    )
    topk.set_defaults(func=_cmd_topk)

    tr = sub.add_parser(
        "trace",
        help="inspect or export trace files recorded with --trace",
    )
    trsub = tr.add_subparsers(dest="trace_command", required=True)
    tshow = trsub.add_parser(
        "show", help="render the recorded span trees as text"
    )
    tshow.add_argument("trace_file")
    tshow.add_argument(
        "--depth",
        type=_positive_int,
        default=None,
        help="limit the rendered tree depth",
    )
    tshow.set_defaults(func=_cmd_trace_show)
    texp = trsub.add_parser(
        "export",
        help="export one run as Chrome trace-event / Perfetto JSON",
    )
    texp.add_argument("trace_file")
    texp.add_argument("-o", "--output", required=True)
    texp.add_argument(
        "--run",
        type=int,
        default=-1,
        help="which recorded run to export (default: the last)",
    )
    texp.set_defaults(func=_cmd_trace_export)

    res = sub.add_parser(
        "resemblance",
        help="precision/recall of another spatial join w.r.t. RCJ",
    )
    res.add_argument("pointset_p")
    res.add_argument("pointset_q")
    res.add_argument("--join", choices=("eps", "kcp", "knn", "cij"), required=True)
    res.add_argument(
        "--param",
        default=None,
        help="join parameter: eps distance, or k (cij takes none)",
    )
    res.set_defaults(func=_cmd_resemblance)

    stream = sub.add_parser(
        "stream",
        help="sustained moving-objects stream against a dynamic RCJ "
        "backend (fleet telemetry, batched incremental maintenance)",
    )
    stream.add_argument(
        "--objects",
        type=_positive_int,
        default=1000,
        help="fleet size, side P (default 1000)",
    )
    stream.add_argument(
        "--depots",
        type=_positive_int,
        default=1000,
        help="depot count, side Q (default 1000)",
    )
    stream.add_argument(
        "--ticks",
        type=_positive_int,
        default=50,
        help="simulation ticks to stream (default 50)",
    )
    stream.add_argument(
        "--batch",
        type=_positive_int,
        default=64,
        help="raw events per update batch (default 64)",
    )
    stream.add_argument(
        "--backend",
        choices=("auto", "array", "obj"),
        default="auto",
        help="dynamic backend: planner choice (default), columnar, "
        "or R*-tree",
    )
    stream.add_argument("--seed", type=int, default=42)
    stream.add_argument(
        "--smoke",
        action="store_true",
        help="bounded CI mode: caps sizes/ticks/batch and forces "
        "--verify",
    )
    stream.add_argument(
        "--verify",
        action="store_true",
        help="recompute the join from scratch at the end and fail "
        "unless the maintained result is identical",
    )
    stream.add_argument(
        "--explain",
        action="store_true",
        help="print the dynamic-backend planner's decision to stderr",
    )
    stream.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append each batch's span tree to a JSONL trace file "
        "(inspect with 'repro trace show/export')",
    )
    stream.set_defaults(func=_cmd_stream)

    cal = sub.add_parser(
        "calibrate",
        help="fit the planner's cost model from measured runs on this host",
    )
    cal.add_argument(
        "--n",
        type=_positive_int,
        default=4000,
        help="largest sweep dataset size (default 4000)",
    )
    cal.add_argument(
        "--rounds",
        type=_positive_int,
        default=2,
        help="sweep repetitions with distinct seeds (default 2)",
    )
    cal.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cap on the pool sizes measured (default: up to all cores)",
    )
    cal.add_argument(
        "--smoke",
        action="store_true",
        help="bounded CI mode: one small round (caps --n at 1200)",
    )
    cal.add_argument(
        "--reset",
        action="store_true",
        help="delete recorded observations and profiles first",
    )
    cal.add_argument(
        "--refit-only",
        action="store_true",
        help="skip the sweep; refit from already-recorded observations",
    )
    cal.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
