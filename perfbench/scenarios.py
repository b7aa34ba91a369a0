"""Inputs, requests and closed loops of the three benchmark workloads.

Every request goes through the package's front door (``run_join``,
``run_topk``, ``make_dynamic(...).apply_batch``); one client sends the
next request only when the previous one has returned.  The seed is
the benchmark's: the program only ever sees the generated points.

Imported by ``run.py`` after it has pinned the environment, so the
package and numpy load under the benchmark's settings.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import make_dynamic, run_join, run_topk
from repro.datasets.fixtures import clustered_pair, uniform_pair
from repro.engine.streaming import pair_order_key
from repro.parallel import costmodel
from repro.workloads.moving import FleetSimulator

#: The paper's default cardinalities; ``--smoke`` shrinks every workload.
FULL = dict(n_p=20000, n_q=25000, n_cij=1000, fleet=10000, depots=10000)
SMOKE = dict(n_p=1500, n_q=1800, n_cij=200, fleet=300, depots=300)

#: The clustered pair is one fixed dataset, the same for every seed:
#: ``clustered_pair(seed=1, w=10)``, on which the pooled join exhausts
#: a worker's memory.  Its cost is set by the cluster layout, so a
#: seeded layout would turn the workload into a lottery.
CLUSTERED_SEED = 1
CLUSTERS = 10

TOPK_K = 100
KCP_K = 500
EPSILON = 47.351  # about 35k pairs at 20k x 25k uniform
KNN_K = 8
BATCH = 64
#: The fleet stream is one fixed recording, the same for every seed.
#: Its batches are bimodal (a batch that moves a point on the hull
#: probes about 5x longer), so a seeded stream's share of such batches
#: alone would move the mean batch cost by several percent per run.
FLEET_SEED = 42
#: Rounds (fleet-stream: batches) per second of ``--seconds``.  A run
#: sends a fixed number of rounds, about ``--seconds`` at a 2-core host's
#: speed, so every run does the same work however fast the host is
#: that minute, and no run ends on a partial round.
ROUND_RATE = {"bulk-join": 0.1, "query-session": 0.4, "fleet-stream": 10.0}
#: Test seam: every request of the kind named here raises instead of
#: running, so the failure accounting can be exercised end to end.
FAIL_ENV = "PERFBENCH_FAIL_KIND"
#: Fleet-stream compares against a from-scratch join every this many
#: batches of the stream, and after the run's last batch.
CHECK_EVERY = 100


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def make_inputs(seed: int, sizes: dict) -> dict:
    """The resident pointset pairs of bulk-join and query-session."""
    n_p, n_q = sizes["n_p"], sizes["n_q"]
    return {
        "uniform": uniform_pair(n_p, n_q, seed=seed),
        "clustered": clustered_pair(n_p, n_q, seed=CLUSTERED_SEED, w=CLUSTERS),
        "cij": uniform_pair(sizes["n_cij"], sizes["n_cij"], seed=seed + 2),
    }


def digest(keys, ordered: bool = False) -> str:
    """``count:hash`` of a result's ``(p_oid, q_oid)`` keys; sorted
    first unless the order is part of the answer (top-k prefixes)."""
    keys = list(keys)
    if not ordered:
        keys.sort()
    blob = np.asarray(keys, dtype=np.int64).tobytes()
    return f"{len(keys)}:{hashlib.sha256(blob).hexdigest()[:16]}"


def report_digest(report, ordered: bool = False) -> str:
    return digest(((pr.p.oid, pr.q.oid) for pr in report.pairs), ordered)


# ----------------------------------------------------------------------
# the request ledger
# ----------------------------------------------------------------------

def _injected_failure():
    raise RuntimeError(f"failure injected by {FAIL_ENV}")


@dataclass
class Record:
    """One attempted request."""

    kind: str
    seconds: float
    units: int  # work items: points joined, requests, update events
    digest: str | None = None
    error: str | None = None
    traceback: str | None = None
    mismatch: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.mismatch


@dataclass
class Ledger:
    """Every request a run attempted, with its outcome."""

    records: list[Record] = field(default_factory=list)

    def attempt(self, kind: str, call: Callable, units: int, digest_of=None):
        """Run one request; an exception is recorded, never raised.
        Returns ``(record, result)`` (result None on failure)."""
        if kind == os.environ.get(FAIL_ENV):
            call = _injected_failure
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted in failed, and the run goes on
            rec = Record(kind, time.perf_counter() - t0, units)
            rec.error = f"{type(exc).__name__}: {exc}"[:300]
            rec.traceback = traceback.format_exc()
            self.records.append(rec)
            return rec, None
        rec = Record(kind, time.perf_counter() - t0, units)
        if digest_of is not None:
            rec.digest = digest_of(result)
        self.records.append(rec)
        return rec, result

    def settle(self, expected: dict) -> None:
        """Mark every completed request whose digest differs from the
        expected one as a mismatch (a failed operation)."""
        for rec in self.records:
            want = expected.get(rec.kind)
            if rec.error is None and want is not None and rec.digest != want:
                rec.mismatch = True

    @property
    def failed(self) -> int:
        return sum(not rec.ok for rec in self.records)

    @property
    def mismatched(self) -> int:
        return sum(rec.mismatch for rec in self.records)

    def seconds_by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for rec in self.records:
            if rec.ok:
                out.setdefault(rec.kind, []).append(rec.seconds)
        return out

    def geomean_median_s(self) -> float:
        """Geometric mean over request kinds of each kind's median
        latency (completed requests only)."""
        medians = [statistics.median(v) for v in self.seconds_by_kind().values()]
        if not medians:
            return float("nan")
        return math.exp(sum(math.log(m) for m in medians) / len(medians))

    def percentile_s(self, q: float) -> float:
        done = [rec.seconds for rec in self.records if rec.ok]
        return float(np.percentile(done, q)) if done else float("nan")

    def throughput(self) -> float:
        done = [rec for rec in self.records if rec.ok]
        busy = sum(rec.seconds for rec in done)
        return sum(rec.units for rec in done) / busy if busy else float("nan")


# ----------------------------------------------------------------------
# request kinds
# ----------------------------------------------------------------------

@dataclass
class Op:
    """One request kind: the front-door call, the inputs it reads, the
    planner decision it makes (re-run alone for ``costmodel.plan_ms``)
    and how its answer is checked."""

    kind: str
    call: Callable
    inputs: tuple
    plan: Callable | None = None
    ordered: bool = False  # the answer's order is checked too
    once: bool = False  # sent once per run, after the rounds
    units: int = 1  # work items one request does, for throughput

    def digest_of(self, report) -> str:
        return report_digest(report, self.ordered)


def bulk_ops(data: dict, workers: int) -> list[Op]:
    """Full RCJ of both pairs, planned (``auto``) and serial (``array``).
    The planned clustered join is sent once per run, after the rounds:
    it fails the same way every time, after several seconds, and its
    worker's peak memory is set by the memory cap, not the program."""
    ops = []
    for name in ("clustered", "uniform"):
        pair = data[name]
        ops.append(
            Op(
                f"rcj_{name}",
                lambda pair=pair: run_join(*pair, engine="auto", workers=workers),
                pair,
                lambda pair=pair: costmodel.choose_plan(*pair, workers=workers),
                once=name == "clustered",
                units=len(pair[0]) + len(pair[1]),
            )
        )
        ops.append(
            Op(
                f"rcj_{name}_serial",
                lambda pair=pair: run_join(*pair, engine="array"),
                pair,
                units=len(pair[0]) + len(pair[1]),
            )
        )
    return ops


def query_ops(data: dict, workers: int) -> list[Op]:
    """The small-result requests of one interactive session."""
    uni, clu, cij = data["uniform"], data["clustered"], data["cij"]
    ops = [
        Op(
            f"topk_{name}",
            lambda pair=pair: run_topk(*pair, TOPK_K, engine="auto", workers=workers),
            pair,
            lambda pair=pair: costmodel.choose_topk_plan(
                *pair, TOPK_K, workers=workers
            ),
            ordered=True,
        )
        for name, pair in (("uniform", uni), ("clustered", clu))
    ]
    for family, pair, params in (
        ("kcp", uni, {"k": KCP_K}),
        ("epsilon", uni, {"eps": EPSILON}),
        ("knn", uni, {"k": KNN_K}),
        ("cij", cij, {}),
    ):
        ops.append(
            Op(
                family,
                lambda f=family, pair=pair, kw=params: run_join(
                    *pair, family=f, engine="auto", workers=workers, **kw
                ),
                pair,
                lambda f=family, pair=pair, kw=params: costmodel.choose_family_plan(
                    f, *pair, workers=workers, **kw
                ),
            )
        )
    return ops


def query_reference(data: dict, pairs=("uniform", "clustered")) -> dict[str, str]:
    """Expected digests of the query kinds from the serial ``array``
    engine; top-k answers are prefixes of the sorted full join (of the
    named ``pairs`` only)."""
    expected = {}
    for name in pairs:
        full = run_join(*data[name], engine="array").pairs
        prefix = sorted(full, key=pair_order_key)[:TOPK_K]
        expected[f"topk_{name}"] = digest(
            ((pr.p.oid, pr.q.oid) for pr in prefix), ordered=True
        )
    uni = data["uniform"]
    for family, pair, params in (
        ("kcp", uni, {"k": KCP_K}),
        ("epsilon", uni, {"eps": EPSILON}),
        ("knn", uni, {"k": KNN_K}),
        ("cij", data["cij"], {}),
    ):
        report = run_join(*pair, family=family, engine="array", **params)
        expected[family] = report_digest(report)
    return expected


# ----------------------------------------------------------------------
# closed loops
# ----------------------------------------------------------------------

def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ROUND_RATE[workload]))


def closed_loop(
    ops: list[Op],
    rounds: int,
    ledger: Ledger,
    rng: random.Random | None = None,
    on_result: Callable | None = None,
) -> int:
    """Send ``rounds`` rounds of one request per kind; ``once`` ops are
    left to the caller.  With ``rng`` each round's order is a seeded
    shuffle.  ``on_result`` sees ``(op, record, result)`` after each
    request.  Returns the rounds."""
    for _ in range(rounds):
        order = [op for op in ops if not op.once]
        if rng is not None:
            rng.shuffle(order)
        for op in order:
            rec, result = ledger.attempt(op.kind, op.call, op.units, op.digest_of)
            if on_result is not None:
                on_result(op, rec, result)
    return rounds


@dataclass
class Fleet:
    """The resident fleet state and its fixed update stream."""

    dyn: object
    live: dict
    stream: object
    resident: int
    batches: int = 0
    last: tuple = (None, None)  # the latest batch's record and pairs read

    @classmethod
    def build(cls, sizes: dict) -> "Fleet":
        sim = FleetSimulator(
            fleet=sizes["fleet"], depots=sizes["depots"], seed=FLEET_SEED
        )
        points_p, points_q = sim.initial_points()
        dyn = make_dynamic(points_p, points_q, backend="auto", batch_size=BATCH)
        live = {
            "P": {p.oid: p for p in points_p},
            "Q": {q.oid: q for q in points_q},
        }
        stream = sim.batch_stream(BATCH, ticks=10**9)
        return cls(dyn, live, stream, len(points_p) + len(points_q))

    def step(self, ledger: Ledger) -> tuple[Record, list, object]:
        """Apply the next batch and read the maintained pairs (one
        request); the batch is drawn before the clock starts."""
        batch = next(self.stream)
        dyn = self.dyn

        def call():
            dyn.apply_batch(batch.inserts, batch.deletes)
            return dyn.pairs

        rec, pairs = ledger.attempt("batch", call, batch.events)
        for point, side in batch.deletes:
            self.live[side].pop(point.oid, None)
        for point, side in batch.inserts:
            self.live[side][point.oid] = point
        self.batches += 1
        self.last = (rec, pairs)
        return rec, pairs, batch

    def check(self, rec: Record, pairs) -> None:
        """Checkpoint: the pairs the client read must equal a
        from-scratch serial join of the live populations."""
        if pairs is None:
            return
        scratch = run_join(
            list(self.live["P"].values()),
            list(self.live["Q"].values()),
            engine="array",
        )
        if {pr.key() for pr in pairs} != scratch.pair_keys():
            rec.mismatch = True


def fleet_loop(
    fleet: Fleet,
    n: int,
    ledger: Ledger,
    on_result: Callable | None = None,
) -> int:
    """Apply the stream's next ``n`` batches, checkpointing every
    :data:`CHECK_EVERY` batches of the stream (the caller checks the
    last one).  Returns the batch count."""
    for _ in range(n):
        rec, pairs, batch = fleet.step(ledger)
        if on_result is not None:
            on_result(rec, pairs, batch)
        if fleet.batches % CHECK_EVERY == 0:
            fleet.check(rec, pairs)
    return n
