"""Result and accounting types shared by all RCJ algorithms."""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.ring import Ring


class RCJPair:
    """One ring-constrained join result pair.

    Besides the pair itself the enclosing circle is part of the result:
    its centre is the derived *fair middleman location* and its radius
    (half the pair distance) the fairness radius, both of which the
    paper's applications consume directly.  The circle is derived
    lazily on first access: bulk joins materialise hundreds of
    thousands of pairs whose circles are never read, and the eager
    :class:`~repro.geometry.ring.Ring` construction used to dominate
    the vectorized engines' wall time.
    """

    __slots__ = ("p", "q", "_circle")

    def __init__(self, p: Point, q: Point, circle: Circle | None = None):
        self.p = p
        self.q = q
        self._circle = circle

    @property
    def circle(self) -> Circle:
        """The enclosing circle (derived from the endpoints on demand)."""
        if self._circle is None:
            self._circle = Ring.of_pair(self.p, self.q)
        return self._circle

    @property
    def center(self) -> tuple[float, float]:
        """The fair middleman location (circle centre)."""
        return self.circle.cx, self.circle.cy

    @property
    def radius(self) -> float:
        """Distance from the middleman location to either endpoint."""
        return self.circle.r

    @property
    def diameter(self) -> float:
        """The pair distance (sort key of the tourist-recommendation
        application)."""
        return 2.0 * self.circle.r

    def key(self) -> tuple[int, int]:
        """Identity of the pair as ``(p.oid, q.oid)``."""
        return (self.p.oid, self.q.oid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RCJPair):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return (
            f"RCJPair(p={self.p.oid}, q={self.q.oid}, "
            f"center=({self.circle.cx:.2f}, {self.circle.cy:.2f}), "
            f"r={self.circle.r:.2f})"
        )


#: Guards the collector pause shared by concurrent
#: :func:`pairs_from_indices` calls: the first pause records the
#: collector's state and the last one puts it back, so an interleaving
#: of callers can neither leave it off nor switch it on early.
_pause_lock = threading.Lock()
_pause = {"depth": 0, "was_enabled": False}


@contextmanager
def _collector_paused():
    """Pause the cyclic collector for the body; restore its prior state
    afterwards, also when the body raises."""
    with _pause_lock:
        if _pause["depth"] == 0:
            _pause["was_enabled"] = gc.isenabled()
            gc.disable()
        _pause["depth"] += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause["depth"] -= 1
            if _pause["depth"] == 0 and _pause["was_enabled"]:
                gc.enable()


def pairs_from_indices(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    p_idx: np.ndarray,
    q_idx: np.ndarray,
) -> list[RCJPair]:
    """Result pairs over the caller's own points, row by row.

    ``p_idx`` / ``q_idx`` are aligned row indices into ``points_p`` /
    ``points_q`` (a columnar join's result block); pair ``i`` holds
    ``points_p[p_idx[i]]`` and ``points_q[q_idx[i]]`` themselves, not
    copies.  The points are gathered through object arrays and the
    pairs built by one ``map``, with the cyclic collector paused for
    that loop alone: every new pair is tracked by the collector, and a
    result of a few hundred thousand pairs would otherwise set off
    hundreds of collections, a few of them full, that free nothing.
    The collector's prior state is put back afterwards, also when the
    loop raises, so a caller's own ``gc.disable()`` is left as it was;
    concurrent calls share one pause (:func:`_collector_paused`).
    """
    if not len(p_idx):
        return []
    side_p = np.fromiter(points_p, dtype=object, count=len(points_p))
    side_q = np.fromiter(points_q, dtype=object, count=len(points_q))
    gathered_p = side_p[p_idx].tolist()
    gathered_q = side_q[q_idx].tolist()
    with _collector_paused():
        return list(map(RCJPair, gathered_p, gathered_q))


class Candidate:
    """A candidate pair flowing through the verification step."""

    __slots__ = ("p", "q", "circle", "alive")

    def __init__(self, p: Point, q: Point):
        self.p = p
        self.q = q
        self.circle = Ring.of_pair(p, q)
        self.alive = True

    def to_pair(self) -> RCJPair:
        """Promote a surviving candidate to a result pair."""
        return RCJPair(self.p, self.q, self.circle)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "pruned"
        return f"Candidate(p={self.p.oid}, q={self.q.oid}, {state})"


@dataclass
class JoinReport:
    """Everything an RCJ algorithm reports about one execution.

    Cost figures follow the paper's model: ``io_seconds`` charges a
    fixed cost per page fault observed at the shared buffer;
    ``cpu_seconds`` is the measured wall-clock time of the computation;
    ``node_accesses`` counts logical R-tree node reads (the paper notes
    CPU time "roughly models the total number ... of R-tree node
    accesses").
    """

    algorithm: str
    pairs: list[RCJPair] = field(default_factory=list)
    candidate_count: int = 0
    node_accesses: int = 0
    page_faults: int = 0
    buffer_hits: int = 0
    cpu_seconds: float = 0.0
    io_seconds: float = 0.0
    modeled_cpu_seconds: float = 0.0
    #: The cost-based planner's decision record
    #: (:class:`repro.parallel.costmodel.ExecutionPlan`) when the join
    #: ran through ``engine="auto"``; None for explicit dispatch.
    #: Traced auto runs of the memory engines carry the measured
    #: per-stage wall times on the plan itself (``plan.measured``),
    #: pairing the planner's estimates with what actually happened.
    plan: object | None = None
    #: Per-stage wall seconds of the memory engines (``candidate`` /
    #: ``prune`` / ``verify``, or a family's operator names), summed
    #: from the trace's stage spans
    #: (:func:`repro.obs.trace.stage_totals`) for explicit and planned
    #: dispatch alike.  Empty when tracing is off (``REPRO_TRACE=0``)
    #: and for the R-tree backend, whose cost accounting is the paper's
    #: node/fault model instead.
    stage_seconds: dict = field(default_factory=dict)
    #: Worker threads that actually executed the join: 1 for every
    #: serial engine *and* for parallel requests that fell back to the
    #: in-process path — distinct from the requested/planned count,
    #: which is what makes calibration observations honest.
    workers_used: int | None = None
    #: The captured trace tree (:class:`repro.obs.trace.Span`) of this
    #: execution, or None when tracing was disabled (``REPRO_TRACE=0``).
    trace: object | None = None

    @property
    def result_count(self) -> int:
        """Number of result pairs."""
        return len(self.pairs)

    @property
    def total_seconds(self) -> float:
        """Wall-clock CPU plus modelled I/O time."""
        return self.cpu_seconds + self.io_seconds

    @property
    def modeled_total_seconds(self) -> float:
        """Fully modelled time: per-fault I/O charge plus per-node-access
        CPU charge (the paper's own accounting, host-independent)."""
        return self.modeled_cpu_seconds + self.io_seconds

    def pair_keys(self) -> set[tuple[int, int]]:
        """Result identity set for resemblance / equality comparisons."""
        return {pair.key() for pair in self.pairs}

    def __repr__(self) -> str:
        return (
            f"JoinReport({self.algorithm}: results={self.result_count}, "
            f"candidates={self.candidate_count}, node_accesses={self.node_accesses}, "
            f"faults={self.page_faults}, cpu={self.cpu_seconds:.3f}s, "
            f"io={self.io_seconds:.3f}s)"
        )
