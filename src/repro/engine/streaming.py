"""Columnar streaming layer: the canonical ascending-diameter order
and the dynamic RCJ over :class:`~repro.engine.arrays.PointArray`.

The paper's two headline applications beyond the one-shot join are
*ordered browsing* of RCJ results (top-k by ring diameter) and
*decision support over changing data* (insertions and deletions).
Ordered browsing on the array engine is the ``rcj`` family's top-k
pipeline (:mod:`repro.engine.families`, behind
:func:`repro.engine.planner.run_topk`); this module keeps the order it
is judged by and the dynamic backend:

:func:`pair_order_key` / :func:`sort_pairs_by_diameter`
    The one canonical ascending-diameter order every top-k route
    sorts by: the *squared* pair distance ``dx*dx + dy*dy`` (the same
    IEEE expression the R-tree distance-join heap and the distance
    bands order by), ties broken by ``(p.oid, q.oid)``.

:class:`DynamicArrayRCJ`
    The columnar twin of :class:`repro.core.dynamic.DynamicRCJ`: the
    same insert/delete contract (the shared
    :class:`~repro.core.dynamic.DynamicBackend` protocol), repaired by
    one algorithm whether updates arrive one at a time or in a batch.
    Kill-sets come from one vectorized evaluation of the exact ring
    predicate over endpoint columns (:class:`_RingColumns`, the
    columnar twin of the pair-circle grid); freed and new pairs come
    from Voronoi-neighbourhood probes over KD-tree streams; all
    verification goes through
    :func:`~repro.engine.kernels.verify_rings_batch`.  Per-event
    ``insert``/``delete`` keep the columns dense; ``apply_batch``
    absorbs a whole update batch with *amortized* maintenance: deletes
    become lazy tombstones (the stale KD-trees stay up, dead rows
    masked out), inserts land in a small per-side buffer probed
    exactly, and the one compaction + KD-tree rebuild per side waits
    until the :data:`TOMBSTONE_FRAC` or :data:`BUFFER_CAP` threshold
    trips — at most once per batch, usually far less often.

Exactness
---------
The dynamic backend keeps the engine's contract: *filter conservative,
verify exact* — every candidate batch is settled by the exact batch
ring verification against the live union, so its state equals the
from-scratch join after every update.
"""

from __future__ import annotations

import heapq
import time

import numpy as np
from scipy.spatial import cKDTree

from repro.core.dynamic import (
    Side,
    record_batch,
    validate_batch,
    voronoi_neighbours,
)
from repro.core.pairs import RCJPair
from repro.engine.arrays import PointArray
from repro.engine.kernels import rcj_pair_indices, verify_rings_batch
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs.trace import add_counter, stage_timer, trace as obs_trace


def pair_order_key(pair: RCJPair) -> tuple[float, int, int]:
    """The canonical ascending-diameter sort key of a result pair.

    ``dx*dx + dy*dy`` is the exact expression both the R-tree
    distance-join heap and the streamed bands order by (squared
    distance is monotone in diameter, with no square root to round),
    and ``(p.oid, q.oid)`` breaks exact ties deterministically.  Every
    top-k route sorts by this one key, which is what makes their
    prefixes comparable byte for byte.
    """
    dx = pair.p.x - pair.q.x
    dy = pair.p.y - pair.q.y
    return (dx * dx + dy * dy, pair.p.oid, pair.q.oid)


def sort_pairs_by_diameter(pairs: list[RCJPair]) -> list[RCJPair]:
    """Result pairs in canonical ascending-diameter order."""
    return sorted(pairs, key=pair_order_key)


# ----------------------------------------------------------------------
# dynamic maintenance, columnar backend
# ----------------------------------------------------------------------

#: Compact a side once its tombstoned main rows exceed this fraction
#: of the main tier (strict: rebuild only when ``dead > frac * main_rows``).
TOMBSTONE_FRAC = 0.25

#: Merge a side's insert buffer into the main tier once it holds more
#: than this many rows (strict: rebuild only when ``buffered > cap``).
BUFFER_CAP = 1024

#: Cells (probe × ring) per broadcast temporary of the kill scan:
#: 512 KB of float64.  Temporaries this small stay in cache and the
#: allocator reuses them from batch to batch.  Under a 4M-cell bound a
#: batch-64 kill scan over 20k rings made 10 MB temporaries that could
#: be mapped fresh on every batch: about 1,000 page faults per batch,
#: measured on the fleet stream.
_SCAN_CELLS = 1 << 16


class _SideColumns:
    """One growable side of the dynamic join, columns plus objects.

    Two mutation tiers share the storage.  *Eager* ops (``insert`` /
    ``pop`` — the per-event path) keep the columns dense: deletions
    swap-remove, and the :class:`PointArray` / KD-tree caches are
    invalidated per mutation and rebuilt lazily.  *Lazy* ops
    (``tombstone`` / ``buffer_insert`` — the ``apply_batch`` path)
    never touch the cached main array or tree: a delete only marks its
    row dead (the row stays in the columns *and* in the stale tree,
    masked out of candidate blocks via ``alive_main``), and an insert
    appends past ``_main_n`` into a side buffer the repair probes
    exactly.
    ``flush`` merges the buffer and drops dead rows in one pass — the
    single compaction + rebuild a batch may pay.  Eager ops flush
    first, so interleaving the two tiers stays correct.
    """

    def __init__(self, points):
        self._xs: list[float] = []
        self._ys: list[float] = []
        self._points: list[Point] = []
        self._row_of: dict[int, int] = {}
        self._dead: set[int] = set()
        self._dead_main = 0  # tombstoned rows below _main_n
        self._main_n = 0  # rows [0, _main_n) are covered by _arr/_tree
        self._arr: PointArray | None = None
        self._tree: cKDTree | None = None
        self._alive: np.ndarray | None = None
        for point in points:
            self.insert(point)

    def __len__(self) -> int:
        return len(self._row_of)

    def has(self, oid: int) -> bool:
        return oid in self._row_of

    # ------------------------------------------------------------------
    # eager tier (per-event path; dense columns)
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> None:
        self.flush()
        if point.oid in self._row_of:
            raise ValueError(f"duplicate oid {point.oid} on one side")
        self._row_of[point.oid] = len(self._points)
        self._xs.append(point.x)
        self._ys.append(point.y)
        self._points.append(point)
        self._main_n = len(self._points)
        self._arr = self._tree = self._alive = None

    def pop(self, oid: int) -> Point | None:
        self.flush()
        row = self._row_of.pop(oid, None)
        if row is None:
            return None
        victim = self._points[row]
        last = len(self._points) - 1
        if row != last:
            mover = self._points[last]
            self._xs[row] = self._xs[last]
            self._ys[row] = self._ys[last]
            self._points[row] = mover
            self._row_of[mover.oid] = row
        del self._xs[last], self._ys[last], self._points[last]
        self._main_n = len(self._points)
        self._arr = self._tree = self._alive = None
        return victim

    def array(self) -> PointArray:
        """The dense compacted array (flushes any lazy state)."""
        self.flush()
        return self._main_array()

    def tree(self) -> cKDTree | None:
        """KD-tree over the dense array (flushes any lazy state)."""
        self.flush()
        return self._main_tree()

    # ------------------------------------------------------------------
    # lazy tier (apply_batch path; tombstones + insert buffer)
    # ------------------------------------------------------------------
    def tombstone(self, oid: int) -> Point | None:
        """Mark ``oid``'s row dead without disturbing the main caches."""
        row = self._row_of.pop(oid, None)
        if row is None:
            return None
        self._dead.add(row)
        if row < self._main_n:
            self._dead_main += 1
            if self._alive is not None:
                self._alive[row] = False
        return self._points[row]

    def buffer_insert(self, point: Point) -> None:
        """Append past the main rows; the stale tree stays valid."""
        if point.oid in self._row_of:
            raise ValueError(f"duplicate oid {point.oid} on one side")
        self._row_of[point.oid] = len(self._points)
        self._xs.append(point.x)
        self._ys.append(point.y)
        self._points.append(point)

    def main_array(self) -> PointArray | None:
        """Stale main columns (dead rows included), or None if empty."""
        return self._main_array() if self._main_n else None

    def main_tree(self) -> cKDTree | None:
        """Stale main KD-tree (dead rows included), or None if empty."""
        return self._main_tree()

    def alive_main(self) -> np.ndarray:
        """Boolean liveness mask over the main rows."""
        if self._alive is None:
            mask = np.ones(self._main_n, dtype=bool)
            for row in self._dead:
                if row < self._main_n:
                    mask[row] = False
            self._alive = mask
        return self._alive

    def buffer_points(self) -> list[Point]:
        """Live buffered inserts (rows past ``_main_n``)."""
        return [
            self._points[row]
            for row in range(self._main_n, len(self._points))
            if row not in self._dead
        ]

    @property
    def main_count(self) -> int:
        return self._main_n

    @property
    def tombstones(self) -> int:
        return self._dead_main

    @property
    def buffered(self) -> int:
        return len(self._points) - self._main_n

    def needs_compaction(self) -> bool:
        """Whether the lazy state crossed :data:`TOMBSTONE_FRAC` or
        :data:`BUFFER_CAP` (strict comparisons: sitting exactly *at* a
        threshold defers)."""
        return (
            self._dead_main > TOMBSTONE_FRAC * self._main_n
            or self.buffered > BUFFER_CAP
        )

    def flush(self) -> bool:
        """Compact: drop dead rows, merge the buffer, invalidate the
        caches.  Returns True when anything actually changed (the
        batch path's rebuild counter)."""
        if not self._dead and self._main_n == len(self._points):
            return False
        if self._dead:
            keep = [
                row
                for row in range(len(self._points))
                if row not in self._dead
            ]
            self._xs = [self._xs[row] for row in keep]
            self._ys = [self._ys[row] for row in keep]
            self._points = [self._points[row] for row in keep]
            self._row_of = {
                p.oid: row for row, p in enumerate(self._points)
            }
            self._dead.clear()
        self._dead_main = 0
        self._main_n = len(self._points)
        self._arr = self._tree = self._alive = None
        return True

    # ------------------------------------------------------------------
    # shared internals
    # ------------------------------------------------------------------
    def point(self, row: int) -> Point:
        return self._points[row]

    def _main_array(self) -> PointArray:
        if self._arr is None:
            n = self._main_n
            self._arr = PointArray(
                np.fromiter(self._xs, np.float64, count=n),
                np.fromiter(self._ys, np.float64, count=n),
                np.fromiter(
                    (p.oid for p in self._points[:n]), np.int64, count=n
                ),
            )
        return self._arr

    def _main_tree(self) -> cKDTree | None:
        if self._main_n == 0:
            return None
        if self._tree is None:
            self._tree = cKDTree(self._main_array().coords())
        return self._tree


class _RingColumns:
    """Columnar twin of the pair-circle grid: endpoint columns of every
    live ring, answering "which rings strictly contain ``(x, y)``" with
    one vectorized evaluation of the **exact** dot predicate
    ``(x - px)(x - qx) + (y - py)(y - qy) < 0`` — term for term the
    IEEE expression of :meth:`repro.geometry.ring.Ring.contains_point`,
    so a containment decision here is the decision the object grid's
    confirm step would have made.  Where the grid buckets circle
    bounding boxes and rechecks a candidate superset per cell, the twin
    scans all live rings in one numpy pass — no superset, no recheck.

    The four coordinate columns and the two endpoint-oid columns are
    rows of NumPy blocks grown by capacity doubling; a removal swaps the
    last ring into the freed slot in place, so both scans stay dense
    without rebuilding the columns.
    """

    def __init__(self):
        self._xy = np.empty((4, 64), dtype=np.float64)  # px, py, qx, qy
        self._oid = np.empty((2, 64), dtype=np.int64)  # P oid, Q oid
        self._keys: list[tuple[int, int]] = []
        self._slot_of: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def _reserve(self, size: int) -> None:
        cap = self._xy.shape[1]
        if size > cap:
            while cap < size:
                cap *= 2
            grow = cap - self._xy.shape[1]
            self._xy = np.concatenate((self._xy, np.empty((4, grow))), 1)
            self._oid = np.concatenate(
                (self._oid, np.empty((2, grow), dtype=np.int64)), 1
            )

    def add(self, key: tuple[int, int], pair: RCJPair) -> None:
        slot = len(self._keys)
        self._reserve(slot + 1)
        self._xy[:, slot] = (pair.p.x, pair.p.y, pair.q.x, pair.q.y)
        self._oid[:, slot] = key
        self._slot_of[key] = slot
        self._keys.append(key)

    def extend(self, keys, xy: np.ndarray, oid: np.ndarray) -> None:
        """Add many new rings at once: ``xy`` holds their ``(4, m)``
        endpoint columns (px, py, qx, qy), ``oid`` their ``(2, m)`` key
        columns."""
        start, end = len(self._keys), len(self._keys) + len(keys)
        self._reserve(end)
        self._xy[:, start:end] = xy
        self._oid[:, start:end] = oid
        self._slot_of.update(zip(keys, range(start, end)))
        self._keys.extend(keys)

    def remove(self, key: tuple[int, int]) -> None:
        slot = self._slot_of.pop(key, None)
        if slot is None:
            return
        last = len(self._keys) - 1
        if slot != last:
            mover = self._keys[last]
            self._xy[:, slot] = self._xy[:, last]
            self._oid[:, slot] = self._oid[:, last]
            self._keys[slot] = mover
            self._slot_of[mover] = slot
        self._keys.pop()

    def keys_involving_any(
        self, oids, side: Side
    ) -> list[tuple[int, int]]:
        """Keys of live rings whose ``side`` endpoint is in ``oids`` —
        one vectorized membership test over that side's oid column."""
        n = len(self._keys)
        if not n or not oids:
            return []
        column = self._oid[0 if side == "P" else 1, :n]
        hit = np.isin(column, np.fromiter(oids, np.int64, count=len(oids)))
        return [self._keys[i] for i in np.nonzero(hit)[0].tolist()]

    def keys_containing_any(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> list[tuple[int, int]]:
        """Keys of live rings strictly containing *any* of the probe
        points — the batch kill-scan, chunked so the broadcast stays
        within a bounded temporary."""
        n = len(self._keys)
        if not n or not len(xs):
            return []
        px, py, qx, qy = self._xy[:, :n]
        hit = np.zeros(n, dtype=bool)
        chunk = max(1, _SCAN_CELLS // n)
        for start in range(0, len(xs), chunk):
            cx = xs[start : start + chunk, None]
            cy = ys[start : start + chunk, None]
            t = (cx - px) * (cx - qx) + (cy - py) * (cy - qy)
            hit |= (t < 0.0).any(axis=0)
        return [self._keys[i] for i in np.nonzero(hit)[0].tolist()]


class DynamicArrayRCJ:
    """The RCJ result maintained under updates, columnar backend.

    Implements the same contract as
    :class:`repro.core.dynamic.DynamicRCJ` (the
    :class:`~repro.core.dynamic.DynamicBackend` protocol) and produces
    the exact same pair set after every update, but answers each update
    with batched kernel work over resident columns instead of pointwise
    R-tree traversals.  Every update — per-event or batched — runs the
    same repair:

    - :meth:`_kill` drops pairs with a deleted endpoint and pairs whose
      ring strictly contains an inserted point (one vectorized
      ring-containment scan, :class:`_RingColumns`);
    - :meth:`_settle` probes each deleted point's Voronoi
      neighbourhood for freed pairs (the object backend's horizon
      argument, streamed from the per-side KD-trees) and each inserted
      point's neighbourhood for its new partners, then settles every
      candidate with one :func:`~repro.engine.kernels.verify_rings_batch`
      pass against the live union, the engine's exact predicate.

    Parameters mirror :class:`~repro.core.dynamic.DynamicRCJ`
    (``bounds`` seeds the deletion clip box; points outside remain
    legal).  ``oid`` values must be unique within each side.
    """

    def __init__(
        self,
        points_p=(),
        points_q=(),
        bounds: Rect | None = None,
    ):
        self.bounds = bounds if bounds is not None else Rect(0, 0, 10000, 10000)
        self._p = _SideColumns(points_p)
        self._q = _SideColumns(points_q)
        self._pairs: dict[tuple[int, int], RCJPair] = {}
        self._rings = _RingColumns()
        #: Lifetime maintenance accounting of the batch path.
        self.stats = {"batches": 0, "events": 0, "rebuilds": 0}
        #: Set by :func:`repro.engine.planner.make_dynamic` on planned
        #: (``backend="auto"``) instances: batches then feed the
        #: calibration observation log.
        self.record_calibration = False
        #: Root span of the last ``apply_batch`` (None when tracing is
        #: off) — the CLI's ``--trace`` sink reads it after each batch.
        self.last_batch_trace = None
        if len(self._p) and len(self._q):
            parr, qarr = self._p.array(), self._q.array()
            p_idx, q_idx, _ = rcj_pair_indices(parr, qarr)
            for pi, qi in zip(p_idx.tolist(), q_idx.tolist()):
                pair = RCJPair(self._p.point(pi), self._q.point(qi))
                self._pairs[pair.key()] = pair
            self._rings.extend(
                list(self._pairs),
                np.stack(
                    (parr.x[p_idx], parr.y[p_idx], qarr.x[q_idx], qarr.y[q_idx])
                ),
                np.stack((parr.oid[p_idx], qarr.oid[q_idx])),
            )

    # ------------------------------------------------------------------
    # result access (DynamicBackend)
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> list[RCJPair]:
        """The current RCJ result (unordered)."""
        return list(self._pairs.values())

    def pair_keys(self) -> set[tuple[int, int]]:
        """Identity set of the current result."""
        return set(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    # ------------------------------------------------------------------
    # updates (DynamicBackend)
    # ------------------------------------------------------------------
    def insert(self, point: Point, side: Side) -> None:
        """Add ``point`` to dataset ``side`` and repair the result."""
        own, other = self._sides(side)
        with obs_trace("dynamic-insert", backend="array", side=side):
            own.insert(point)
            other.flush()  # per-event calls leave no lazy state behind
            self._kill((), [(point, side)])
            self._settle((), [(point, side)])

    def delete(self, point: Point, side: Side) -> bool:
        """Remove ``point`` from dataset ``side`` and repair the result.

        Raises a named ``KeyError`` (and changes nothing) when no point
        with that oid lives on ``side``; returns True on success.
        """
        own, other = self._sides(side)
        if not own.has(point.oid):
            raise KeyError(
                f"no point with oid {point.oid} on side {side!r}"
            )
        with obs_trace("dynamic-delete", backend="array", side=side):
            victim = own.pop(point.oid)
            other.flush()  # per-event calls leave no lazy state behind
            self._kill([(point, side)], ())
            self._settle([(victim, side)], ())
        return True

    # ------------------------------------------------------------------
    # batched updates (DynamicBackend)
    # ------------------------------------------------------------------
    def apply_batch(self, inserts=(), deletes=()) -> None:
        """Absorb one update batch with amortized maintenance.

        ``inserts`` / ``deletes`` are sequences of ``(point, side)``;
        deletes apply before inserts, so deleting and re-inserting one
        oid in a batch is a "move".  After validation
        (:func:`~repro.core.dynamic.validate_batch` — atomic, nothing
        mutates on a malformed batch) the whole batch is absorbed with
        *no* per-event column compaction or KD-tree rebuild: deletes
        become lazy tombstones (the stale per-side KD-trees stay up,
        dead rows masked out via ``blocker_alive`` in the verify
        kernel) and inserts land in small per-side buffers probed
        exactly.  The repair itself is the one the per-event calls run
        (:meth:`_kill`, then :meth:`_settle`); at most one compaction +
        KD-tree rebuild per side follows, and only past the
        :data:`TOMBSTONE_FRAC` / :data:`BUFFER_CAP` thresholds.
        """
        inserts = [(point, side) for point, side in inserts]
        deletes = [(point, side) for point, side in deletes]
        validate_batch(
            inserts,
            deletes,
            lambda side, oid: self._sides(side)[0].has(oid),
        )
        t0 = time.perf_counter()
        with obs_trace(
            "dynamic-batch",
            backend="array",
            n_inserts=len(inserts),
            n_deletes=len(deletes),
        ) as root:
            with stage_timer("kill"):
                victims = [
                    (self._sides(side)[0].tombstone(point.oid), side)
                    for point, side in deletes
                ]
                for point, side in inserts:
                    self._sides(side)[0].buffer_insert(point)
                self._kill(deletes, inserts)
            self._settle(victims, inserts)
            with stage_timer("rebuild"):
                self._maybe_compact()
            if root is not None:
                root.add("pairs", len(self._pairs))
                root.set(
                    tombstones=self._p.tombstones + self._q.tombstones,
                    buffered=self._p.buffered + self._q.buffered,
                )
        self.stats["batches"] += 1
        self.stats["events"] += len(inserts) + len(deletes)
        self.last_batch_trace = root
        record_batch(
            self,
            "array",
            len(self._p),
            len(self._q),
            len(inserts) + len(deletes),
            time.perf_counter() - t0,
            root,
        )

    # ------------------------------------------------------------------
    # the repair algorithm (per-event and batched updates alike)
    # ------------------------------------------------------------------
    def _kill(self, deletes, inserts) -> None:
        """Drop every pair the updates invalidate: pairs with a deleted
        endpoint, then pairs whose ring strictly contains an inserted
        point (one vectorized exact-predicate scan of the ring
        columns)."""
        killed = 0
        for side in ("P", "Q"):
            keys = self._rings.keys_involving_any(
                [point.oid for point, s in deletes if s == side], side
            )
            killed += len(keys)
            for key in keys:
                self._drop(key)
        if inserts:
            ix = np.fromiter(
                (p.x for p, _ in inserts), np.float64, count=len(inserts)
            )
            iy = np.fromiter(
                (p.y for p, _ in inserts), np.float64, count=len(inserts)
            )
            keys = self._rings.keys_containing_any(ix, iy)
            killed += len(keys)
            for key in keys:
                self._drop(key)
        add_counter("killed", killed)

    def _settle(self, victims, inserts) -> None:
        """Add every pair the updates made valid.

        Candidates are freed pairs around each deleted point
        (``victims``) and new pairs of each inserted point, probed over
        one final-union view (:meth:`_union_sources`); one exact
        verification pass against that view settles them all.
        """
        if not len(self._p) or not len(self._q):
            return
        candidates: dict[tuple[int, int], RCJPair] = {}
        streamed = 0
        with stage_timer("probe"):
            sources = self._union_sources()
            span = self._live_span(sources)
            for victim, _side in victims:
                streamed += self._probe_victim(
                    victim, sources, span, candidates
                )
            for point, side in inserts:
                streamed += self._probe_insert(
                    point, side, sources, span, candidates
                )
        add_counter("streamed", streamed)
        add_counter("candidates", len(candidates))
        added = 0
        if candidates:
            with stage_timer("verify"):
                pairs = list(candidates.values())
                m = len(pairs)
                px = np.fromiter((pr.p.x for pr in pairs), np.float64, count=m)
                py = np.fromiter((pr.p.y for pr in pairs), np.float64, count=m)
                qx = np.fromiter((pr.q.x for pr in pairs), np.float64, count=m)
                qy = np.fromiter((pr.q.y for pr in pairs), np.float64, count=m)
                alive = self._verify_sources(px, py, qx, qy, sources)
                for j in np.nonzero(alive)[0].tolist():
                    self._store(pairs[j])
                added = int(alive.sum())
        add_counter("added", added)

    def _probe_victim(self, victim: Point, sources, span, candidates) -> int:
        """Freed-pair candidates of one deleted point over the final
        union view: cross the P/Q split of its Voronoi neighbourhood,
        keep rings it strictly blocked.  Returns the points streamed."""
        neighborhood, streamed = self._voronoi_neighbours(
            victim, sources, span, stop_on_coincident=True
        )
        if neighborhood is None:
            # A coincident live point remains: every ring that contained
            # the victim still contains that point — nothing is freed.
            return streamed
        near_p = [z for z, z_side in neighborhood if z_side == "P"]
        near_q = [z for z, z_side in neighborhood if z_side == "Q"]
        if not near_p or not near_q:
            return streamed
        px = np.fromiter((z.x for z in near_p), np.float64, count=len(near_p))
        py = np.fromiter((z.y for z in near_p), np.float64, count=len(near_p))
        qx = np.fromiter((z.x for z in near_q), np.float64, count=len(near_q))
        qy = np.fromiter((z.y for z in near_q), np.float64, count=len(near_q))
        n_pn, n_qn = len(near_p), len(near_q)
        pi = np.repeat(np.arange(n_pn), n_qn)
        qi = np.tile(np.arange(n_qn), n_pn)
        blocked = (victim.x - px[pi]) * (victim.x - qx[qi]) + (
            victim.y - py[pi]
        ) * (victim.y - qy[qi]) < 0.0
        for a, b in zip(pi[blocked].tolist(), qi[blocked].tolist()):
            key = (near_p[a].oid, near_q[b].oid)
            if key in self._pairs or key in candidates:
                continue
            candidates[key] = RCJPair(near_p[a], near_q[b])
        return streamed

    def _probe_insert(
        self, point: Point, side: Side, sources, span, candidates
    ) -> int:
        """New-pair candidates of one inserted point: its opposite-side
        Voronoi neighbours over the final union view (a verified pair's
        ring is empty of the final union, so its endpoints are Delaunay
        neighbours there — the neighbourhood is a superset).  Returns
        the points streamed."""
        neighborhood, streamed = self._voronoi_neighbours(
            point,
            sources,
            span,
            stop_on_coincident=False,
            exclude=(side, point.oid),
        )
        other_side: Side = "Q" if side == "P" else "P"
        for z, z_side in neighborhood:
            if z_side != other_side:
                continue
            pair = RCJPair(point, z) if side == "P" else RCJPair(z, point)
            key = pair.key()
            if key in self._pairs or key in candidates:
                continue
            candidates[key] = pair
        return streamed

    def _union_sources(self) -> list[tuple]:
        """The composite final-union view every repair probes and
        verifies against: per side, the stale main tree with its
        liveness mask, plus a KD-tree over the live insert buffer.  A
        source is ``(side, point_of, tree, xs, ys, alive)``: ``point_of``
        maps a tree row to its point, ``alive`` masks dead rows (None:
        all rows live)."""
        sources: list[tuple] = []
        for side, cols in (("P", self._p), ("Q", self._q)):
            tree = cols.main_tree()
            if tree is not None:
                arr = cols.main_array()
                sources.append(
                    (side, cols.point, tree, arr.x, arr.y, cols.alive_main())
                )
            buf = cols.buffer_points()
            if buf:
                bx = np.fromiter((p.x for p in buf), np.float64, count=len(buf))
                by = np.fromiter((p.y for p in buf), np.float64, count=len(buf))
                tree = cKDTree(np.column_stack((bx, by)))
                sources.append((side, buf.__getitem__, tree, bx, by, None))
        return sources

    def _verify_sources(self, px, py, qx, qy, sources) -> np.ndarray:
        """Exact ring verification against the composite union view:
        the conjunction of the batch verify kernel over every source,
        dead rows masked — exactly one verification against the full
        live union."""
        alive = np.ones(len(px), dtype=bool)
        for _side, _point_of, tree, xs, ys, mask in sources:
            if not alive.any():
                break
            if mask is not None and not mask.any():
                continue
            alive &= verify_rings_batch(
                px, py, qx, qy, tree, xs, ys,
                blocker_alive=None if mask is None or mask.all() else mask,
            )
        return alive

    def _live_span(self, sources) -> list[float]:
        """Bounding box of the domain and every source's rows — the
        clip box each probe of one repair shares.  Dead main rows only
        enlarge it (:func:`~repro.core.dynamic.voronoi_neighbours`
        needs every live point covered)."""
        span = [
            self.bounds.xmin,
            self.bounds.ymin,
            self.bounds.xmax,
            self.bounds.ymax,
        ]
        for _side, _point_of, _tree, xs, ys, _alive in sources:
            span[0] = min(span[0], float(xs.min()))
            span[1] = min(span[1], float(ys.min()))
            span[2] = max(span[2], float(xs.max()))
            span[3] = max(span[3], float(ys.max()))
        return span

    def _voronoi_neighbours(
        self,
        x: Point,
        sources,
        span: list[float],
        stop_on_coincident: bool,
        exclude: tuple[Side, int] | None = None,
    ) -> tuple[list[tuple[Point, Side]] | None, int]:
        """Voronoi neighbourhood of ``x`` over the composite view —
        ascending-distance streams from each source, heap-merged into
        the shared clip loop — and the number of points it pulled.
        ``span`` is the repair's :meth:`_live_span`; ``exclude`` drops
        one ``(side, oid)`` (an inserted point probing for its own
        partners)."""
        streams = [self._stream(x, src, exclude) for src in sources]
        return voronoi_neighbours(
            x,
            heapq.merge(*streams, key=lambda t: t[0]),
            [
                min(span[0], x.x),
                min(span[1], x.y),
                max(span[2], x.x),
                max(span[3], x.y),
            ],
            stop_on_coincident=stop_on_coincident,
        )

    @staticmethod
    def _stream(x: Point, src, exclude):
        """One source's live points in ascending distance from ``x``
        (doubling-k KD queries, dead rows skipped)."""
        side, point_of, tree, _xs, _ys, mask = src
        n = tree.n
        done = 0
        k = 32
        while True:
            kk = min(k, n)
            dist, idx = tree.query([x.x, x.y], k=kk)
            dist = np.atleast_1d(dist)
            idx = np.atleast_1d(idx)
            for d, row in zip(dist[done:].tolist(), idx[done:].tolist()):
                if mask is not None and not mask[row]:
                    continue
                z = point_of(row)
                if (
                    exclude is not None
                    and side == exclude[0]
                    and z.oid == exclude[1]
                ):
                    continue
                yield float(d), z, side
            if kk == n:
                return
            done = kk
            k *= 2

    def _maybe_compact(self) -> int:
        """Flush a side's lazy state when it crossed a threshold — the
        at-most-one compaction + KD-tree rebuild per side per batch."""
        rebuilds = 0
        for cols in (self._p, self._q):
            if cols.needs_compaction() and cols.flush():
                cols.tree()  # rebuild now so the cost lands in "rebuild"
                rebuilds += 1
        self.stats["rebuilds"] += rebuilds
        add_counter("rebuilds", rebuilds)
        return rebuilds

    def maintenance_stats(self) -> dict:
        """Lifetime batch accounting plus the current lazy state."""
        return {
            **self.stats,
            "tombstones": self._p.tombstones + self._q.tombstones,
            "buffered": self._p.buffered + self._q.buffered,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _sides(self, side: Side) -> tuple[_SideColumns, _SideColumns]:
        if side == "P":
            return self._p, self._q
        if side == "Q":
            return self._q, self._p
        raise ValueError(f"side must be 'P' or 'Q', got {side!r}")

    def _store(self, pair: RCJPair) -> None:
        key = pair.key()
        if key in self._pairs:
            return
        self._pairs[key] = pair
        self._rings.add(key, pair)

    def _drop(self, key: tuple[int, int]) -> None:
        if self._pairs.pop(key, None) is not None:
            self._rings.remove(key)

    def __repr__(self) -> str:
        return (
            f"DynamicArrayRCJ(|P|={len(self._p)}, |Q|={len(self._q)}, "
            f"pairs={len(self._pairs)})"
        )
