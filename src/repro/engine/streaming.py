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
    from Voronoi-neighbourhood probes (see *Probe neighbourhoods*
    below); all verification goes through
    :func:`~repro.engine.kernels.verify_rings_batch`.  Per-event
    ``insert``/``delete`` keep the columns dense; ``apply_batch``
    absorbs a whole update batch with *amortized* maintenance: deletes
    become lazy tombstones (the stale KD-trees stay up, dead rows
    masked out), inserts land in a small per-side buffer probed
    exactly, and the one compaction + KD-tree rebuild per side waits
    until the :data:`TOMBSTONE_FRAC` or :data:`BUFFER_CAP` threshold
    trips — at most once per batch, usually far less often.

Probe neighbourhoods
--------------------
Each repair gathers its probes (the deleted points, then the inserted
ones) and answers them all in one batched pass: no probe runs Python
of its own.  One KD query per union source (the main tree and the
insert-buffer tree of each side) reads the ``_WINDOW`` nearest rows of
every probe, and one stable ``argsort`` merges them into padded
matrices (:meth:`DynamicArrayRCJ._probe_windows`).  A window is
complete up to its *cut*, the smallest last-window distance over the
sources whose window did not cover every row.  The bisector kernel
(:func:`bisector_cells`) then decides, for every window row at once,
whether its bisector with the probe meets the probe's Voronoi cell
within the widened live span.  The constraint rows are chosen so that
the cell is the exact one: the cell of the :data:`_FIRST_CELL` nearest
rows bounds a horizon, and every row within it constrains the final
cell.  A probe whose horizon reaches its cut is re-queried with twice
the rows per source, together with the other such probes (a *spill*,
counted once per probe as ``probe_spills``); ``streamed`` counts the
rows within each probe's final horizon.  Both counts, and the emitted
neighbourhoods, do not depend on the window size.

Exactness
---------
The dynamic backend keeps the engine's contract: *filter conservative,
verify exact* — every candidate batch is settled by the exact batch
ring verification against the live union, so its state equals the
from-scratch join after every update.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import Callable, NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from repro.core.dynamic import (
    _SPAN_MARGIN,
    _TOUCH_SLACK,
    Side,
    record_batch,
    validate_batch,
)
from repro.core.pairs import RCJPair, pairs_from_indices
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

#: Nearest rows each source's first batched KD query returns per probe
#: (:meth:`DynamicArrayRCJ._probe_windows`).  A fleet probe's final
#: horizon holds about 16 rows of the merged union, so a 32-row window
#: per source almost never spills into a re-query.  The emitted
#: neighbourhoods do not depend on it.
_WINDOW = 32

#: Nearest rows whose Voronoi cell bounds a probe's first horizon; every
#: row within that horizon then constrains the exact cell.
_FIRST_CELL = 16

#: Cells (constraint row × candidate row × probe) per temporary of the
#: bisector kernel: 256 KB of float64.  A fleet repair's programs fit
#: in one or two blocks; a probe whose horizon takes in thousands of
#: rows is cut into many.
_LP_CELLS = 1 << 15


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
        self._oids: list[int] = []
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
        self._oids.append(point.oid)
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
            self._oids[row] = self._oids[last]
            self._points[row] = mover
            self._row_of[mover.oid] = row
        del self._xs[last], self._ys[last], self._oids[last]
        del self._points[last]
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
        self._oids.append(point.oid)
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

    def buffer_columns(
        self,
    ) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
        """Live buffered inserts (rows past ``_main_n``) as
        ``(rows, x, y, oid)``, read off the side's own columns."""
        lo = self._main_n
        rows = list(range(lo, len(self._points)))
        x = np.array(self._xs[lo:], dtype=np.float64)
        y = np.array(self._ys[lo:], dtype=np.float64)
        oid = np.array(self._oids[lo:], dtype=np.int64)
        dead = [row - lo for row in self._dead if row >= lo]
        if dead:
            live = np.ones(len(rows), dtype=bool)
            live[dead] = False
            rows = [row for row, keep in zip(rows, live.tolist()) if keep]
            x, y, oid = x[live], y[live], oid[live]
        return rows, x, y, oid

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
            self._oids = [self._oids[row] for row in keep]
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

    def points(self) -> list[Point]:
        """Every row's point by row index (dead rows included)."""
        return self._points

    def _main_array(self) -> PointArray:
        if self._arr is None:
            n = self._main_n
            self._arr = PointArray(
                np.fromiter(self._xs, np.float64, count=n),
                np.fromiter(self._ys, np.float64, count=n),
                np.fromiter(self._oids, np.int64, count=n),
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


def bisector_cells(zx, zy, near, n, box, slack):
    """Which rows' bisectors meet each probe's Voronoi cell: one batched
    linear program per (probe, row).

    Coordinates are relative to the probe ``x``.  Row ``j`` of probe
    ``i`` sits at ``(zx[i, j], zy[i, j])``; its first ``n[i]`` rows,
    sorted by distance, are both the candidates and the constraints.
    ``near`` marks the rows within the touch slack of ``x`` (coincident
    ones included): they are emitted without a program and constrain
    nothing, since a bisector that close to ``x`` may cut off witnesses
    the exact ring predicate accepts.  ``box`` holds each probe's
    widened live span ``(xmin, ymin, xmax, ymax)``, relative to ``x``;
    ``slack`` its touch slack.

    The witness centres of row ``z`` lie on its bisector with ``x``,
    ``c(s) = z/2 + s·perp(z)``.  Constraint row ``w`` keeps ``c`` in
    ``x``'s cell, ``2c·w <= |w|² + 2·slack·|w|``, which reads
    ``a·s <= b`` with ``a = 2·perp(z)·w`` and
    ``b = |w|² + 2·slack·|w| − z·w``; the box bounds ``s`` twice per
    axis.  Row ``z`` is emitted iff the largest lower bound is at most
    the smallest upper bound.

    Why the emitted rows hold every partner a repair needs: each such
    partner has a witness centre on its bisector with ``x`` (see
    :func:`~repro.core.dynamic.voronoi_neighbours`).  The centre is a
    convex combination of live points, so it lies in the live span;
    no live point is nearer to it than ``x``, so it lies in ``x``'s cell
    with respect to *any* subset of the live points.  So the partner's
    program is feasible whatever the constraint rows, and its distance
    is at most twice the centre's.

    Returns ``(emitted, far)``: the emitted rows, and per probe the
    largest distance from ``x`` to its cell, over the feasible interval
    endpoints and the box corners inside the cell.  Every vertex of the
    cell of the constraint rows lies on such an interval or is such a
    corner, so the whole cell, and every witness centre, lies within
    ``far`` of ``x``; no row farther than ``2·(far + slack)`` (the
    *horizon*) can be a neighbour or cut the cell.  Probes are
    bucketed by row count, powers of two from :data:`_FIRST_CELL`, so
    padding stays small.
    """
    emitted = np.zeros(zx.shape, dtype=bool)
    far = np.zeros(len(n))
    bucket = np.ceil(np.log2(np.maximum(n, _FIRST_CELL) / _FIRST_CELL))
    for b in np.unique(bucket).tolist():
        rows = np.nonzero(bucket == b)[0]
        r = int(n[rows].max())
        emitted[rows, :r], far[rows] = _cells(
            zx[rows, :r], zy[rows, :r], near[rows, :r], n[rows],
            box[rows], slack[rows],
        )
    return emitted, far


def _cells(zx, zy, near, n, box, slack):
    """:func:`bisector_cells` over one bucket of equal-width rows.

    The programs run constraint-major, ``(constraint, candidate,
    probe)``: every broadcast's inner loop runs along the probes, and
    every reduction is an elementwise pass over the constraint axis.
    """
    m, r = zx.shape
    valid = np.arange(r) < n[:, None]
    con = valid & ~near
    zxt, zyt = np.ascontiguousarray(zx.T), np.ascontiguousarray(zy.T)
    wx = np.where(con.T, zxt, 0.0)[:, None, :]
    wy = np.where(con.T, zyt, 0.0)[:, None, :]
    ww = wx * wx + wy * wy
    bw = ww + 2.0 * slack * np.sqrt(ww)
    wx2, wy2 = 2.0 * wx, 2.0 * wy
    lo = np.empty((r, m))
    hi = np.empty((r, m))
    step = max(1, _LP_CELLS // max(r * m, 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(0, r, step):
            block = slice(j, j + step)
            cx, cy = zxt[None, block], zyt[None, block]
            a = cx * wy2
            a -= cy * wx2
            a += 0.0  # no -0.0: a parallel constraint reads a == +0
            b = cx * wx
            b += cy * wy
            np.subtract(bw, b, out=b)
            q = b / a
            # +inf where a < 0 (q bounds s from below), -inf elsewhere.
            # A parallel constraint (a == 0, padding rows too) reads
            # q = +inf, -inf or NaN (b == 0) as it excludes none, all
            # or, touching, none of the bisector; fmin skips the NaN.
            sign = np.copysign(np.inf, -a)
            lo[block] = np.fmin(q, sign).max(axis=0)
            hi[block] = np.fmin.reduce(
                np.maximum(q, sign), axis=0, initial=np.inf
            )
        lo, hi = lo.T, hi.T
        # The box: c(s) = c0 + s·g on each axis stays in [low, high].
        for c0, g, low, high in (
            (0.5 * zx, -zy, box[:, 0:1], box[:, 2:3]),
            (0.5 * zy, zx, box[:, 1:2], box[:, 3:4]),
        ):
            t1 = (low - c0) / g
            t2 = (high - c0) / g
            flat = g == 0.0
            inside = (low <= c0) & (c0 <= high)
            lo = np.maximum(lo, np.where(flat, -np.inf, np.minimum(t1, t2)))
            hi = np.minimum(
                hi,
                np.where(
                    flat,
                    np.where(inside, np.inf, -np.inf),
                    np.maximum(t1, t2),
                ),
            )
        ok = con & (lo <= hi)
        # |c(s)|² = |z|²·(1/4 + s²): perp(z) is orthogonal to z.
        s2 = np.maximum(lo * lo, hi * hi)
        far2 = np.where(ok, (zx * zx + zy * zy) * (0.25 + s2), 0.0).max(
            axis=1, initial=0.0
        )
    cx = box[:, [0, 2, 0, 2]].T[None]
    cy = box[:, [1, 1, 3, 3]].T[None]
    inside = (2.0 * (cx * wx + cy * wy) <= bw).all(axis=0)
    corner2 = np.where(inside, cx[0] ** 2 + cy[0] ** 2, 0.0).max(axis=0)
    return ok | (valid & near), np.sqrt(np.maximum(far2, corner2))


class _Source(NamedTuple):
    """One KD-indexed slice of the final-union view a repair probes:
    a side's stale main tier or its live insert buffer.  ``point_of``
    maps a tree row to its point; ``alive`` masks dead rows (None: all
    rows live); ``oid`` is the rows' oid column."""

    side: Side
    point_of: Callable[[int], Point]
    tree: cKDTree
    xs: np.ndarray
    ys: np.ndarray
    alive: np.ndarray | None
    oid: np.ndarray


class _Union(NamedTuple):
    """The union sources of one repair, concatenated: a row's *global*
    id is its source's ``start`` plus its row in that source."""

    sources: list[_Source]
    start: list[int]
    x: np.ndarray
    y: np.ndarray
    oid: np.ndarray
    is_q: np.ndarray

    @classmethod
    def of(cls, sources: list[_Source]) -> "_Union":
        sizes = [len(src.xs) for src in sources]
        return cls(
            sources,
            np.cumsum([0] + sizes[:-1]).tolist(),
            np.concatenate([src.xs for src in sources]),
            np.concatenate([src.ys for src in sources]),
            np.concatenate([src.oid for src in sources]),
            np.repeat([src.side == "Q" for src in sources], sizes),
        )

    def point(self, row: int) -> Point:
        s = bisect_right(self.start, row) - 1
        return self.sources[s].point_of(row - self.start[s])


class _Windows(NamedTuple):
    """Every probe's merged KD window, as padded matrices sorted by
    distance: the first ``count`` rows of a probe are the live union
    rows strictly nearer than its ``cut``."""

    dist: np.ndarray
    row: np.ndarray  # global union row ids
    zx: np.ndarray  # coordinates relative to the probe
    zy: np.ndarray
    count: np.ndarray
    cut: np.ndarray


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
      neighbourhood for freed pairs and each inserted point's
      neighbourhood for its new partners (the witness-centre argument
      of :func:`bisector_cells`), all probes of the repair in one
      batched pass with a fixed number of NumPy calls — windows, the
      bisector kernel, candidate columns — then settles every candidate
      with one :func:`~repro.engine.kernels.verify_rings_batch` pass
      against the live union, the engine's exact predicate.  Pair
      objects are built only for the candidates that verify.

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
        #: Probes of the current repair that spilled past their window.
        self._spills = 0
        if len(self._p) and len(self._q):
            parr, qarr = self._p.array(), self._q.array()
            p_idx, q_idx, _ = rcj_pair_indices(parr, qarr)
            self._pairs = dict(zip(
                zip(parr.oid[p_idx].tolist(), qarr.oid[q_idx].tolist()),
                pairs_from_indices(
                    self._p.points(), self._q.points(), p_idx, q_idx
                ),
            ))
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
        (``victims``) and new pairs of each inserted point.  All probes
        of the repair (the victims, then the inserts) are answered over
        one final-union view (:meth:`_union_sources`) in one batched
        pass: windows (:meth:`_probe_windows`), neighbourhoods
        (:meth:`_neighbourhoods`), candidate columns
        (:meth:`_candidates`), and one exact verification against that
        view.  Pairs are built only for the candidates that verify.
        """
        if not len(self._p) or not len(self._q):
            return
        nv = len(victims)
        probes = [victim for victim, _side in victims]
        probes += [point for point, _side in inserts]
        before = len(self._pairs)
        with stage_timer("probe"):
            union = _Union.of(self._union_sources())
            xy = np.array(
                [(x.x, x.y) for x in probes], dtype=np.float64
            ).reshape(-1, 2)
            oid = np.array([x.oid for x in probes], dtype=np.int64)
            # An inserted point's own row is excluded from its probe.
            own = np.array(
                [-1] * nv + [side == "Q" for _point, side in inserts],
                dtype=np.int64,
            )
            probe, row, streamed, spills = self._neighbourhoods(
                xy, own, oid, nv, union, self._live_span(union)
            )
            # Endpoint ids past the union's rows name the probes.
            eoid = np.concatenate((union.oid, oid))
            pe, qe = self._candidates(xy, own, nv, probe, row, union, eoid)
        add_counter("streamed", streamed)
        add_counter("probe_spills", spills)
        add_counter("candidates", len(pe))
        if len(pe):
            with stage_timer("verify"):
                ex = np.concatenate((union.x, xy[:, 0]))
                ey = np.concatenate((union.y, xy[:, 1]))
                px, py, qx, qy = ex[pe], ey[pe], ex[qe], ey[qe]
                alive = self._verify_sources(
                    px, py, qx, qy, union.sources
                )
                self._store(
                    pe[alive], qe[alive], probes, union,
                    np.stack((px, py, qx, qy))[:, alive],
                    np.stack((eoid[pe], eoid[qe]))[:, alive],
                )
        add_counter("added", len(self._pairs) - before)

    def _union_sources(self) -> list[_Source]:
        """The composite final-union view every repair probes and
        verifies against: per side, the stale main tree with its
        liveness mask, plus a KD-tree over the live insert buffer."""
        sources: list[_Source] = []
        for side, cols in (("P", self._p), ("Q", self._q)):
            tree = cols.main_tree()
            if tree is not None:
                arr = cols.main_array()
                sources.append(
                    _Source(
                        side, cols.point, tree, arr.x, arr.y,
                        cols.alive_main(), arr.oid,
                    )
                )
            rows, bx, by, oid = cols.buffer_columns()
            if rows:
                tree = cKDTree(np.column_stack((bx, by)))
                sources.append(
                    _Source(
                        side,
                        lambda i, cols=cols, rows=rows: cols.point(rows[i]),
                        tree, bx, by, None, oid,
                    )
                )
        return sources

    def _verify_sources(self, px, py, qx, qy, sources) -> np.ndarray:
        """Exact ring verification against the composite union view:
        the conjunction of the batch verify kernel over every source,
        dead rows masked — exactly one verification against the full
        live union."""
        alive = np.ones(len(px), dtype=bool)
        for src in sources:
            if not alive.any():
                break
            mask = src.alive
            if mask is not None and not mask.any():
                continue
            alive &= verify_rings_batch(
                px, py, qx, qy, src.tree, src.xs, src.ys,
                blocker_alive=None if mask is None or mask.all() else mask,
            )
        return alive

    def _live_span(self, union: _Union) -> np.ndarray:
        """Bounding box of the domain and every union row — the clip
        box each probe of one repair shares.  Dead main rows only
        enlarge it (a probe's cell needs every live point covered)."""
        b = self.bounds
        return np.array([
            min(b.xmin, float(union.x.min())),
            min(b.ymin, float(union.y.min())),
            max(b.xmax, float(union.x.max())),
            max(b.ymax, float(union.y.max())),
        ])

    @staticmethod
    def _neighbourhoods(xy, own, oid, nv, union, span):
        """Every probe's Voronoi neighbourhood over ``union``, batched.

        ``xy`` holds the probes, the first ``nv`` of them deleted points
        (*victims*); ``own``/``oid`` name an inserted probe's own row
        (side 0/1, -1 for a victim).  Each probe's clip box and touch
        slack are built from ``span`` and the probe exactly as
        :func:`~repro.core.dynamic.voronoi_neighbours` builds them.

        Per round, on the probes still open:

        1. the cell of the :data:`_FIRST_CELL` nearest rows bounds a
           horizon ``H1`` (:func:`bisector_cells`);
        2. if ``H1`` is below the cut, every row within ``H1`` (and
           those nearest rows) constrains the exact cell, whose feasible
           rows are emitted;
        3. otherwise every row below the cut does, and a probe whose
           horizon still reaches its cut is re-queried in the next
           round, with twice the rows per source, until its horizon is
           below the cut or the window covers every source.

        A victim with a live coincident twin frees nothing: every ring
        that held it still holds the twin, so it emits no row.  Returns
        ``(probe, row, streamed, spills)``: the emitted rows as probe
        indices and global union rows (ascending probe index), the rows
        within the final horizons, and the probes re-queried.
        """
        lo = np.minimum(span[:2], xy)
        hi = np.maximum(span[2:], xy)
        margin = _SPAN_MARGIN * np.maximum((hi - lo).max(axis=1), 1.0)
        slack = _TOUCH_SLACK * np.maximum(
            np.abs(np.hstack((lo, hi))).max(axis=1), 1.0
        )
        box = np.hstack((lo - margin[:, None], hi + margin[:, None]))
        box -= np.hstack((xy, xy))
        victim = np.arange(len(xy)) < nv
        probes, rows = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        streamed = spills = 0
        todo = np.arange(len(xy))
        k = _WINDOW
        while len(todo):
            win = DynamicArrayRCJ._probe_windows(
                xy[todo], own[todo], oid[todo], union, k
            )
            sl, bx = slack[todo], box[todo]
            near = win.dist <= sl[:, None]
            n1 = np.minimum(win.count, _FIRST_CELL)
            f = slice(0, _FIRST_CELL)
            emitted = np.zeros(win.dist.shape, dtype=bool)
            emitted[:, f], far = bisector_cells(
                win.zx[:, f], win.zy[:, f], near[:, f], n1, bx, sl
            )
            h1 = 2.0 * (far + sl)
            within = (win.dist <= h1[:, None]).sum(axis=1)
            within = np.minimum(within, win.count)
            n = np.where(h1 < win.cut, np.maximum(n1, within), win.count)
            # Where no row joins the first cell, that cell is the last.
            grow = np.nonzero(n > n1)[0]
            if len(grow):
                emitted[grow], far[grow] = bisector_cells(
                    win.zx[grow], win.zy[grow], near[grow], n[grow],
                    bx[grow], sl[grow],
                )
            h = 2.0 * (far + sl)
            done = (h < win.cut) | (win.cut == np.inf)
            valid = np.arange(win.dist.shape[1]) < win.count[:, None]
            twin = victim[todo] & (
                valid & (win.zx == 0.0) & (win.zy == 0.0)
            ).any(axis=1)
            streamed += int((win.dist[done] <= h[done, None]).sum())
            i, j = np.nonzero(emitted & (done & ~twin)[:, None])
            probes.append(todo[i])
            rows.append(win.row[i, j])
            if k == _WINDOW:
                spills = int((~done).sum())
            todo = todo[~done]
            k *= 2
        probe = np.concatenate(probes)
        order = np.argsort(probe, kind="stable")
        return probe[order], np.concatenate(rows)[order], streamed, spills

    @staticmethod
    def _probe_windows(xy, own, oid, union, k) -> _Windows:
        """Every probe's nearest live union rows, from one KD query per
        source for the whole batch.

        Each source answers one ``query(xy, k=min(k, n))``; dead rows
        and an inserted probe's own row (``own`` side, ``oid``) read
        ``+inf``; the sources concatenate in order and one stable
        ``argsort`` per probe merges them.  A probe's merged window is
        complete up to its *cut*: the smallest last-window distance over
        the sources whose window did not cover every row (``+inf`` when
        all did), since no row left out of a window is nearer than that
        window's last entry.  Returns padded matrices of the merged
        distances, global union rows and probe-relative coordinates,
        plus each probe's count of rows strictly nearer than its cut.
        """
        m = len(xy)
        cut = np.full(m, np.inf)
        dists, rows = [], []
        for src, start in zip(union.sources, union.start):
            n = len(src.xs)
            kk = min(k, n)
            d, idx = src.tree.query(xy, k=kk)
            d = d.reshape(m, kk)
            idx = idx.reshape(m, kk)
            if kk < n:
                np.minimum(cut, d[:, -1], out=cut)
            if src.alive is not None:
                d[~src.alive[idx]] = np.inf
            mine = own == (src.side == "Q")
            if mine.any():
                d[mine[:, None] & (src.oid[idx] == oid[:, None])] = np.inf
            dists.append(d)
            rows.append(idx + start)
        d = np.hstack(dists)
        order = np.argsort(d, axis=1, kind="stable")
        count = (d < cut[:, None]).sum(axis=1)
        width = int(count.max(initial=0))
        order = order[:, :width]
        d = np.take_along_axis(d, order, axis=1)
        row = np.take_along_axis(np.hstack(rows), order, axis=1)
        return _Windows(
            d,
            row,
            union.x[row] - xy[:, :1],
            union.y[row] - xy[:, 1:],
            count,
            cut,
        )

    @staticmethod
    def _candidates(xy, own, nv, probe, row, union, eoid):
        """Candidate pairs of the emitted rows, as P and Q endpoint ids
        (a global union row, or the union's row count plus a probe
        index for an inserted probe itself), deduplicated by their oid
        keys (``eoid`` is indexed by endpoint id).

        A victim's freed-pair candidates cross its emitted P and Q rows
        (one ragged repeat) and keep the rings it strictly blocked, by
        the exact ring predicate.  An insert pairs with its emitted
        opposite-side rows.  None of them is in the result already: a
        ring that held a victim was not a pair, and every pair of an
        inserted oid was killed or never existed.
        """
        side_q = union.is_q[row]
        v = probe < nv
        p_probe, p_row = probe[v & ~side_q], row[v & ~side_q]
        q_probe, q_row = probe[v & side_q], row[v & side_q]
        nq = np.bincount(q_probe, minlength=nv)
        reps = nq[p_probe]
        a = np.repeat(np.arange(len(p_probe)), reps)
        b = np.arange(len(a)) - np.repeat(np.cumsum(reps) - reps, reps)
        b += (np.cumsum(nq) - nq)[p_probe[a]]
        pv, qv = p_row[a], q_row[b]
        vx, vy = xy[p_probe[a], 0], xy[p_probe[a], 1]
        blocked = (vx - union.x[pv]) * (vx - union.x[qv]) + (
            vy - union.y[pv]
        ) * (vy - union.y[qv]) < 0.0
        i_probe, i_row = probe[~v], row[~v]
        i_q = own[i_probe] == 1
        opposite = side_q[~v] != i_q
        i_probe, i_row, i_q = i_probe[opposite], i_row[opposite], i_q[opposite]
        self_id = len(union.x) + i_probe
        pe = np.concatenate((pv[blocked], np.where(i_q, i_row, self_id)))
        qe = np.concatenate((qv[blocked], np.where(i_q, self_id, i_row)))
        po, qo = eoid[pe], eoid[qe]
        order = np.lexsort((qo, po))
        po, qo = po[order], qo[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (po[1:] != po[:-1]) | (qo[1:] != qo[:-1])
        order = order[first]
        return pe[order], qe[order]

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

    def _store(self, pe, qe, probes, union, xy, oid) -> None:
        """Add verified pairs, given as endpoint ids (see
        :meth:`_candidates`) with their ``(4, m)`` endpoint columns
        (px, py, qx, qy) and ``(2, m)`` oid keys."""
        n = len(union.x)

        def point(e: int) -> Point:
            return probes[e - n] if e >= n else union.point(e)

        keys = list(zip(*oid.tolist()))
        self._pairs.update(zip(keys, [
            RCJPair(point(a), point(b))
            for a, b in zip(pe.tolist(), qe.tolist())
        ]))
        self._rings.extend(keys, xy, oid)

    def _drop(self, key: tuple[int, int]) -> None:
        if self._pairs.pop(key, None) is not None:
            self._rings.remove(key)

    def __repr__(self) -> str:
        return (
            f"DynamicArrayRCJ(|P|={len(self._p)}, |Q|={len(self._q)}, "
            f"pairs={len(self._pairs)})"
        )
