#!/usr/bin/env python3
"""The repo benchmark: three closed-loop workloads over the RCJ package.

Run from the repository root::

    python3 perfbench/run.py --workload bulk-join --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload, both modes

``--seconds`` sets how many rounds of requests a run sends (about that
many seconds on a 2-core host).  ``--trace 0`` times untraced requests
and reports the end-to-end metrics; ``--trace 1`` alternates as many untraced
as traced rounds and reports the per-layer metrics, derived from the
benchmark's own timings and from the span trees on ``report.trace``.  ``--smoke``
shrinks every input (used by the benchmark's tests).  Results, the
host fingerprint and the traced run's Perfetto JSON go to
``.perfbench/`` at the repository root.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("bulk-join", "query-session", "fleet-stream")
#: Worker budget of every planned request (never more than the cores).
WORKERS = min(2, os.cpu_count() or 1)
#: Address-space cap of the benchmark process and, by inheritance, of
#: every pool worker: a runaway worker raises MemoryError instead of
#: waking the host's OOM killer.
MEMORY_CAP_BYTES = 2 << 30
SETUP_REPEATS = 3
#: The seed whose answers are pinned in ``digests.json``.
PINNED_SEED = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: ``name -> unit`` of the end-to-end metrics, reported on every workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "geomean_median_ms": "ms",
    "p90_ms": "ms",
    "throughput_per_s": "1/s",
}


def pin_environment() -> None:
    """Make the run hermetic: no calibration profile steers ``auto``
    and none is written, no ``REPRO_*`` override leaks in, numeric
    libraries stay single-threaded, temporary files stay inside the
    checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CALIBRATION"] = "0"
    set_tracing(False)
    for key in THREAD_VARS:
        os.environ[key] = "1"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def set_tracing(on: bool) -> None:
    os.environ["REPRO_TRACE"] = "1" if on else "0"


def cap_memory() -> None:
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_BYTES if hard == resource.RLIM_INFINITY else min(hard, MEMORY_CAP_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest finished child
    (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def source_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def host_fingerprint() -> dict:
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode())
        src_hash.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": source_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
        "memory_cap_bytes": MEMORY_CAP_BYTES,
    }


def import_seconds() -> float:
    """Median wall time of importing the package in a fresh interpreter
    (an in-process import can be timed only once)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro, repro.parallel.pool"],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=True,
        )
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def child_pids() -> list[int]:
    """The processes whose parent is this one, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # ended meanwhile
            continue
        # ``pid (comm) state ppid ...``; comm may hold spaces and parens.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap(pids, grace_s: float) -> None:
    """Wait up to ``grace_s`` for each of ``pids`` (children of this
    process) to end, then kill the rest; returns once every one has
    been waited for."""
    pending = set(pids)
    deadline = time.monotonic() + grace_s
    while pending:
        for pid in list(pending):
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # already waited for
                done = pid
            if done:
                pending.discard(pid)
        if not pending:
            return
        if time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for pid in pending:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            return
        time.sleep(0.01)


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process the run started and wait until each has
    ended.  Pool workers end with their executor; a straggler gets
    SIGTERM.  The multiprocessing resource tracker (started by the
    first shared-memory block) would outlive the run, orphaned, until
    it notices its pipe is closed: close the pipe here and wait."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    others = [pid for pid in child_pids() if pid != tracker_pid]
    for pid in others:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    reap(others, grace_s)
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        os.close(fd)  # end of file on its pipe: the tracker exits
        tracker._fd = None
        tracker._pid = None
    reap(child_pids(), grace_s)


def exit_on_signal() -> None:
    """SIGTERM and SIGINT end the run through ``finally`` blocks (so
    its processes are stopped); forked pool workers, which inherit the
    handler, still die by the signal at once."""
    main_pid = os.getpid()

    def handler(signum, _frame):
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, handler)


def finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def pinned_digests(workload: str, seed: int) -> dict:
    """The pinned answers that apply to ``seed``: all of them for the
    pinned seed, else those of the fixed clustered pair."""
    pinned = json.loads((HERE / "digests.json").read_text())[workload]
    if seed == PINNED_SEED:
        return pinned
    return {kind: d for kind, d in pinned.items() if "clustered" in kind}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Run:
    """One benchmark run of one workload."""

    def __init__(self, args, wl, layers):
        self.args = args
        self.wl = wl
        self.layers = layers
        self.sizes = wl.SMOKE if args.smoke else wl.FULL
        self.ledger = wl.Ledger()  # the timed (or untraced) requests
        self.traced_ledger = wl.Ledger()
        self.warm_ledger = wl.Ledger()  # traced mode's warm-up round
        self.traced = None
        self.setup_samples: list[float] = []
        self.peak_rss = 0.0

    def setup(self, build):
        """Build the resident state ``SETUP_REPEATS`` times (median
        reported); returns the last build."""
        state = None
        for _ in range(SETUP_REPEATS):
            state = None  # one build alive at a time
            gc.collect()
            t0 = time.perf_counter()
            state = build()
            self.setup_samples.append(time.perf_counter() - t0)
        return state

    @staticmethod
    def freeze():
        """Move the resident inputs out of the collector's sight, so a
        full collection during a request does not walk the benchmark's
        own data."""
        gc.collect()
        gc.freeze()

    def measure(self, loop, warm=None) -> None:
        """Timed mode: the loop sends the run's rounds untraced.
        Traced mode: one untraced warm-up round, so first-touch costs
        stay out of the comparison, then half the rounds (at least two)
        untraced and as many traced, in pairs whose order alternates,
        so drift in the host's speed and the benchmark's own work after
        each traced round hit both sides alike."""
        rounds = self.wl.rounds_for(self.args.workload, self.args.seconds)
        if not self.args.trace:
            loop(rounds, self.ledger, None)
            self.peak_rss = peak_rss_mb()
            return
        if warm is None:
            loop(1, self.warm_ledger, None)
        else:
            warm()
        self.traced = self.layers.TracedRun(
            self.args.workload, seed=self.args.seed, workers=WORKERS
        )
        for i in range(2 * max(2, rounds // 2)):
            if (i + i // 2) % 2 == 0:  # untraced, traced, traced, untraced, ...
                loop(1, self.ledger, None)
                continue
            set_tracing(True)
            try:
                self.traced.rounds += loop(1, self.traced_ledger, self.traced)
            finally:
                set_tracing(False)

    def pinned(self, workload: str) -> dict:
        return {} if self.args.smoke else pinned_digests(workload, self.args.seed)

    def warm_inputs(self) -> dict:
        """Set-up warm-ups run on small fixed inputs, whatever the seed."""
        return self.wl.make_inputs(PINNED_SEED, self.wl.SMOKE)

    def run_bulk(self) -> None:
        wl = self.wl

        def warm():
            for op in wl.bulk_ops(self.warm_inputs(), WORKERS):
                op.call()

        self.setup(warm)
        data = wl.make_inputs(self.args.seed, self.sizes)
        ops = wl.bulk_ops(data, WORKERS)
        self.freeze()

        def loop(rounds, ledger, traced):
            return wl.closed_loop(
                ops, rounds, ledger, on_result=traced.observe if traced else None
            )

        self.measure(loop)
        for op in ops:
            if op.once:
                self.ledger.attempt(op.kind, op.call, op.units, op.digest_of)
        # Unpinned answers: the serial join is the reference of the
        # planned one (and of its own repeats).
        expected = {}
        for rec in self.records():
            if rec.kind.endswith("_serial") and rec.digest is not None:
                expected.setdefault(rec.kind, rec.digest)
                expected.setdefault(rec.kind[: -len("_serial")], rec.digest)
        expected.update(self.pinned("bulk-join"))
        self.settle(expected)
        if self.traced is not None:
            self.traced.extra["pool.candidates_vs_serial"] = (
                self.traced.candidates_vs_serial(data["clustered"], WORKERS)
            )

    def run_query(self) -> None:
        wl = self.wl

        def warm():
            for op in wl.query_ops(self.warm_inputs(), WORKERS):
                op.call()

        self.setup(warm)
        data = wl.make_inputs(self.args.seed, self.sizes)
        ops = wl.query_ops(data, WORKERS)
        self.freeze()
        rng = random.Random(self.args.seed)

        def loop(rounds, ledger, traced):
            return wl.closed_loop(
                ops, rounds, ledger, rng, traced.observe if traced else None
            )

        self.measure(loop)
        expected = self.pinned("query-session")
        if len(expected) < len(ops):
            unpinned = [n for n in ("uniform", "clustered") if f"topk_{n}" not in expected]
            expected = {**wl.query_reference(data, unpinned), **expected}
        self.settle(expected)

    def run_fleet(self) -> None:
        wl = self.wl
        fleet = self.setup(lambda: wl.Fleet.build(self.sizes))
        # Traced batches go to an identical twin fed the same stream, so
        # the overhead comparison pairs each batch with itself.
        fleets = (fleet, wl.Fleet.build(self.sizes)) if self.args.trace else (fleet,)
        self.freeze()

        def loop(batches, ledger, traced):
            if traced is None:
                return wl.fleet_loop(fleet, batches, ledger)
            twin = fleets[1]
            observe = lambda rec, pairs, batch: traced.observe_batch(
                rec, pairs, batch, twin.dyn
            )
            return wl.fleet_loop(twin, batches, ledger, observe)

        def warm():
            for each in fleets:
                wl.fleet_loop(each, 1, self.warm_ledger)

        self.measure(loop, warm)
        for each in fleets:
            each.check(*each.last)
        if self.traced is not None:
            t0 = time.perf_counter()
            wl.costmodel.choose_dynamic_backend(
                self.sizes["fleet"], self.sizes["depots"], wl.BATCH
            )
            self.traced.extra["costmodel.plan_ms"] = 1000.0 * (time.perf_counter() - t0)
            self.traced.extra["resident"] = fleet.resident

    def ledgers(self):
        return (self.warm_ledger, self.ledger, self.traced_ledger)

    def settle(self, expected: dict) -> None:
        for ledger in self.ledgers():
            ledger.settle(expected)

    def records(self):
        return [rec for ledger in self.ledgers() for rec in ledger.records]

    def end_to_end(self, import_s: float) -> dict[str, float]:
        led = self.ledger
        return {
            "setup_s": import_s + statistics.median(self.setup_samples),
            "peak_rss_mb": self.peak_rss,
            "geomean_median_ms": 1000.0 * led.geomean_median_s(),
            "p90_ms": 1000.0 * led.percentile_s(90),
            "throughput_per_s": led.throughput(),
        }

    def per_layer(self) -> dict[str, float]:
        out = self.traced.metrics()
        untraced, traced = self.ledger, self.traced_ledger
        # Both sides ran the same requests: compare their summed time.
        out["obs.trace_overhead_frac"] = untraced.throughput() / traced.throughput() - 1.0
        for metric, (kind, stat) in self.layers.KIND_LATENCY.items():
            if stat == "attempt_s":
                tries = [r.seconds for r in untraced.records if r.kind == kind]
                out[metric] = statistics.median(tries) if tries else 0.0
            else:
                done = untraced.seconds_by_kind().get(kind)
                out[metric] = 1000.0 * statistics.median(done) if done else 0.0
        workload = self.args.workload
        if workload == "query-session":
            out["query_p90_ms"] = 1000.0 * untraced.percentile_s(90)
        if workload == "fleet-stream":
            out["batch_p90_ms"] = 1000.0 * untraced.percentile_s(90)
            out["updates_per_s"] = untraced.throughput()
        records = self.records()
        out["failed_frac"] = sum(not r.ok for r in records) / len(records)
        return out


def run_all(args) -> int:
    """Every workload in both modes, each in its own process."""
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode:
                return proc.returncode
            summary[f"{workload}/trace{trace}"] = json.loads(
                proc.stdout.strip().splitlines()[-1]
            )
    print(json.dumps(summary))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="small inputs, for tests"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    exit_on_signal()
    try:
        return run_main(parse_args(argv))
    finally:
        stop_children()


def run_main(args) -> int:
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    cap_memory()
    sys.path.insert(0, str(SRC))
    import repro
    import layers
    import scenarios as wl

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    run = Run(args, wl, layers)
    {
        "bulk-join": run.run_bulk,
        "query-session": run.run_query,
        "fleet-stream": run.run_fleet,
    }[args.workload]()

    import_s = None
    if args.trace:
        values, units = run.per_layer(), layers.PER_LAYER
    else:
        import_s = import_seconds()
        values, units = run.end_to_end(import_s), END_TO_END
    records = run.records()
    result = {
        "correct": not any(r.mismatch for r in records),
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {
            name: {"value": finite(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    failures = [
        {"kind": r.kind, "error": r.error, "traceback": r.traceback, "mismatch": r.mismatch}
        for r in records
        if not r.ok
    ]
    detail = {
        "args": vars(args),
        "host": host_fingerprint(),
        "setup_samples_s": run.setup_samples,
        "import_s": import_s,
        "seconds_by_kind": run.ledger.seconds_by_kind(),
        "traced_seconds_by_kind": run.traced_ledger.seconds_by_kind(),
        "failures": failures,
        "result": result,
    }
    if run.traced is not None:
        from repro.obs.export import to_chrome, validate_chrome

        doc = to_chrome(run.traced.close())
        validate_chrome(doc)
        (OUT / f"{stem}.perfetto.json").write_text(json.dumps(doc))
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2))

    print(f"host {json.dumps(detail['host'])}")
    for rec in failures:
        print(f"failed {rec['kind']}: {rec['error'] or 'wrong result'}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
