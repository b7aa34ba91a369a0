"""Incremental RCJ maintenance under point insertions and deletions.

The decision-support applications of the paper (recycling stations,
postboxes, bus stops) face datasets that change: restaurants open,
buildings are demolished.  Recomputing the join from scratch per update
wastes the locality of the change — an update only affects pairs whose
ring interacts with the updated location.  :class:`DynamicRCJ` keeps
the result set current with local work per update:

Insertion of ``z``
    (i) every existing pair whose ring strictly contains ``z`` dies —
    found via a uniform grid over pair circles and confirmed with the
    exact ring predicate; (ii) new pairs all involve ``z`` (adding a
    point never validates a pair between others): its partners come
    from the paper's own Filter step against the opposite tree,
    verified against both trees.

Deletion of ``x``
    (i) pairs involving ``x`` die; (ii) pairs *freed* by ``x`` are
    those whose ring contained ``x`` and nothing else.  Shrinking such
    a ring towards either endpoint produces an empty circle through the
    endpoint and ``x``, so both endpoints are Delaunay neighbours of
    ``x`` in ``P ∪ Q``.  The neighbourhood is computed exactly, without
    a triangulation, by clipping ``x``'s Voronoi cell with bisectors of
    points streamed in ascending distance (merged incremental-NN over
    both trees): once the next point is farther than twice the farthest
    cell vertex, no remaining point can be a Delaunay neighbour.  All
    streamed points form the (slightly super-) candidate set; candidate
    bichromatic pairs with ``x`` strictly inside their ring are
    verified against both trees.

Every mutation is mirrored to the R*-trees (R* insert / condense-tree
delete), so the structure *is* the disk-resident index plus a derived
view — exactly what a decision-support deployment would keep.

Batched updates
---------------
Both backends also accept a whole batch at once
(:meth:`DynamicBackend.apply_batch`): deletes are applied before
inserts, so a "move" — delete and insert of the same oid in one batch —
is well defined.  This class applies the batch as the validated
sequential composition of its per-event updates (the *oracle* the
columnar backend is equivalence-tested against);
:class:`repro.engine.streaming.DynamicArrayRCJ` runs one repair for
per-event and batched updates alike and absorbs a batch with tombstone
masks and an insert buffer, compacting at most once.  Both backends
share batch validation (:func:`validate_batch`, so malformed batches
fail identically — *before* any mutation), the clip box and touch
slack of a Voronoi probe (:data:`_SPAN_MARGIN`, :data:`_TOUCH_SLACK`)
and the calibration hook (:func:`record_batch`).  This class probes
with the scalar clip :func:`voronoi_neighbours`; the columnar backend
decides all of a repair's probes in one batched bisector kernel.
"""

from __future__ import annotations

import heapq
import time
from typing import (
    Iterable,
    Iterator,
    Literal,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.core.filtering import filter_candidates
from repro.core.gabriel import gabriel_rcj
from repro.core.pairs import Candidate, RCJPair
from repro.core.verification import verify_circles
from repro.geometry.point import Point
from repro.geometry.polygon import box_polygon, clip_halfplane
from repro.geometry.rect import Rect
from repro.obs.trace import stage_totals
from repro.obs.trace import trace as obs_trace
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree
from repro.storage.disk import DEFAULT_PAGE_SIZE

Side = Literal["P", "Q"]


@runtime_checkable
class DynamicBackend(Protocol):
    """The contract every dynamic-RCJ implementation satisfies.

    Two backends exist: :class:`DynamicRCJ` (this module — pointwise
    updates over disk-resident R*-trees) and
    :class:`repro.engine.streaming.DynamicArrayRCJ` (batched kernels
    over resident columns).  Both maintain the invariant that after any
    update sequence the pair set equals the from-scratch join of the
    current populations, so callers pick a backend — directly or via
    :func:`repro.engine.planner.make_dynamic` — on cost, never on
    semantics.

    ``delete`` of an absent oid raises ``KeyError`` naming the oid and
    side (and mutates nothing); it returns True on success.
    ``apply_batch`` absorbs one batch of ``(point, side)`` updates,
    deletes before inserts, after validating the whole batch with
    :func:`validate_batch`.
    """

    def insert(self, point: Point, side: Side) -> None: ...

    def delete(self, point: Point, side: Side) -> bool: ...

    def apply_batch(self, inserts=(), deletes=()) -> None: ...

    @property
    def pairs(self) -> list[RCJPair]: ...

    def pair_keys(self) -> set[tuple[int, int]]: ...

    def __len__(self) -> int: ...


def validate_batch(inserts, deletes, has_point) -> None:
    """Validate one update batch before any mutation happens.

    ``inserts``/``deletes`` are sequences of ``(point, side)``;
    ``has_point(side, oid)`` reports current membership.  The batch
    semantics are *deletes first, then inserts*, so deleting and
    inserting the same oid in one batch is a legal "move".  Everything
    else that would silently corrupt state is rejected up front:

    - an invalid side (``ValueError``),
    - the same ``(side, oid)`` deleted or inserted twice in one batch
      (``ValueError``),
    - deleting an oid that is not present (``KeyError``, naming it),
    - inserting an oid already present and *not* deleted in the same
      batch (``ValueError`` — a move must carry its delete).

    Both backends call this first, so a malformed batch fails
    identically everywhere and leaves the result untouched.
    """
    seen_deletes: set[tuple[str, int]] = set()
    for point, side in deletes:
        if side not in ("P", "Q"):
            raise ValueError(f"side must be 'P' or 'Q', got {side!r}")
        key = (side, point.oid)
        if key in seen_deletes:
            raise ValueError(
                f"duplicate delete of oid {point.oid} on side {side!r}"
                " in one batch"
            )
        seen_deletes.add(key)
        if not has_point(side, point.oid):
            raise KeyError(
                f"no point with oid {point.oid} on side {side!r}"
            )
    seen_inserts: set[tuple[str, int]] = set()
    for point, side in inserts:
        if side not in ("P", "Q"):
            raise ValueError(f"side must be 'P' or 'Q', got {side!r}")
        key = (side, point.oid)
        if key in seen_inserts:
            raise ValueError(
                f"duplicate insert of oid {point.oid} on side {side!r}"
                " in one batch"
            )
        seen_inserts.add(key)
        if has_point(side, point.oid) and key not in seen_deletes:
            raise ValueError(
                f"oid {point.oid} already present on side {side!r};"
                " delete it in the same batch to move it"
            )


def record_batch(
    dyn,
    engine: str,
    n_p: int,
    n_q: int,
    batch_size: int,
    seconds: float,
    root,
) -> None:
    """Feed one ``apply_batch`` of backend ``dyn`` to the calibration
    log — planned instances only (``dyn.record_calibration``, set by
    :func:`repro.engine.planner.make_dynamic`), and exception-fenced
    like every calibration hook.  The stage split comes from the
    batch's trace ``root`` (none when tracing is off)."""
    if not dyn.record_calibration:
        return
    try:
        from repro.calibration.observations import record_observation
        from repro.parallel.costmodel import estimate_bytes

        record_observation(
            kind="dynamic",
            engine=engine,
            workers=1,
            n_p=n_p,
            n_q=n_q,
            density_factor=1.0,
            est_candidates=batch_size,
            est_bytes=estimate_bytes(n_p, n_q, 1, 0),
            stage_seconds=None if root is None else stage_totals(root),
            total_seconds=seconds,
        )
    except Exception:
        pass


#: Relative widening of the starting cell past the live span: room for
#: the float error of a witness centre computed at the span's edge.
_SPAN_MARGIN = 1e-6

#: Touch slack of a Voronoi probe, relative to the span's largest
#: coordinate magnitude: a bisector missing the cell by less than this
#: counts as touching it, and the horizon reaches this much farther.
_TOUCH_SLACK = 1e-9


def voronoi_neighbours(
    x: Point,
    stream: Iterable[tuple[float, Point, Side]],
    span: list[float],
    stop_on_coincident: bool = True,
) -> tuple[list[tuple[Point, Side]] | None, int]:
    """Clip ``x``'s Voronoi cell against an ascending-distance stream.

    This scalar clip serves the object backend (:class:`DynamicRCJ`),
    and it is the reference the columnar backend's batched bisector
    kernel (:func:`repro.engine.streaming.bisector_cells`) is argued
    and fuzzed against: the kernel emits the rows whose bisectors reach
    the *exact* cell, a subset of what this loop emits from its
    intermediate cells, and both contain every partner a repair needs.

    ``stream`` yields ``(distance, point, side)`` in ascending distance
    over some pointset; ``span`` is a bounding box that must cover every
    *live* point (the streamed set, plus an inserted ``x``).  Dead rows,
    a domain box and ``x`` itself may only enlarge it.  The cell starts
    as the span, widened by :data:`_SPAN_MARGIN` of its extent for float
    error, and streaming stops once the next point is beyond twice the
    farthest cell vertex.  Returns the neighbourhood and the number of
    points pulled from ``stream``.  The neighbourhood, a ``(point,
    side)`` list, is a superset of the streamed points a dynamic repair
    needs:

    - an *insert* probe's pair ``(x, z)`` has the empty ring ``D(x,
      z)``, centred on the midpoint of two live points;
    - a pair ``(a, b)`` *freed* by a deleted ``x`` had ``x`` inside its
      empty-of-the-rest ring.  Shrinking ``D(a, b)`` towards ``a`` until
      ``x`` lies on its boundary gives an empty circle through ``a`` and
      ``x``, whose centre lies on the segment from ``ab``'s midpoint to
      ``a`` (and likewise for ``b``).

    Either witness centre ``c`` is a convex combination of live points,
    so it lies in the span; no streamed point is nearer to ``c`` than
    ``x``, so ``c`` lies in ``x``'s cell, on the partner's bisector.
    The partner's bisector therefore reaches the clipped cell, and the
    partner is at most ``2|c - x|`` from ``x``: inside the horizon.
    Gabriel neighbours alone would not do for deletions: ``D(a, x)``
    need not lie inside ``D(a, b)``.

    A streamed point coinciding with ``x`` imposes no halfplane.  With
    ``stop_on_coincident`` (deletion semantics) it aborts the whole
    neighbourhood (returned as None) — a coincident twin survives, so
    every ring that contained ``x`` still contains the twin and nothing
    is freed.
    Otherwise (insertion probes) the coincident point is *emitted*: a
    zero-radius ring with it is a legal degenerate pair.  A point
    within the touch slack of ``x`` is emitted without clipping too.

    Only points whose bisector actually reaches the current cell are
    emitted.  The cell is a superset of ``x``'s final Voronoi region
    within the span at every step, so a bisector that leaves the whole
    cell strictly on ``x``'s side can never pass through a witness
    centre — such a point is not needed and its half-plane clip would
    be a no-op.
    """
    margin = _SPAN_MARGIN * max(span[2] - span[0], span[3] - span[1], 1.0)
    cell = box_polygon(
        span[0] - margin, span[1] - margin, span[2] + margin, span[3] + margin
    )
    # Touch slack: treat a bisector missing the cell by less than this
    # distance as touching, covering the accumulated float error of the
    # clipped cell vertices (scaled to the coordinate magnitude).  The
    # horizon gets the same slack: a partner diametrically opposite a
    # witness centre that is the farthest vertex sits exactly on it.
    slack = _TOUCH_SLACK * max(
        abs(span[0]), abs(span[1]), abs(span[2]), abs(span[3]), 1.0
    )

    def max_vertex_dist() -> float:
        return slack + max(
            ((vx - x.x) ** 2 + (vy - x.y) ** 2) ** 0.5 for vx, vy in cell
        )

    horizon = 2.0 * max_vertex_dist()
    out: list[tuple[Point, Side]] = []
    pulled = 0
    for pulled, (d, z, z_side) in enumerate(stream, 1):
        if d > horizon:
            break
        if z.x == x.x and z.y == x.y:
            if stop_on_coincident:
                return None, pulled
            out.append((z, z_side))
            continue
        if d <= slack:
            # Within the cell's float error of x: emitted, not clipped.
            # A bisector this close to x may cut off witnesses the exact
            # predicate accepts (its products underflow near zero).
            out.append((z, z_side))
            continue
        nx = z.x - x.x
        ny = z.y - x.y
        mx = (x.x + z.x) / 2.0
        my = (x.y + z.y) / 2.0
        # (v - m) . n has units length * |n| = length * d: divide the
        # distance slack through by comparing against -slack * d.
        smax = max((vx - mx) * nx + (vy - my) * ny for vx, vy in cell)
        if smax < -slack * d:
            continue
        out.append((z, z_side))
        clipped = clip_halfplane(cell, mx, my, nx, ny)
        if clipped:
            cell = clipped
            horizon = 2.0 * max_vertex_dist()
        # else: the cell collapsed numerically — keep the previous
        # (larger) horizon and keep streaming; conservative.
    return out, pulled


#: Grid resolution of the pair-circle index.
_GRID_CELLS = 64


class _PairGrid:
    """Uniform grid over pair circles, for "rings containing (x, y)"
    lookups.  Pairs register in every cell their circle's bounding box
    overlaps; lookups return a candidate superset that the caller
    confirms with the exact predicate."""

    def __init__(self, bounds: Rect, cells: int = _GRID_CELLS):
        self.bounds = bounds
        self.cells = cells
        self._cell_w = max(bounds.xmax - bounds.xmin, 1e-9) / cells
        self._cell_h = max(bounds.ymax - bounds.ymin, 1e-9) / cells
        self._buckets: dict[tuple[int, int], set[tuple[int, int]]] = {}
        self._cells_of: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        ix = int((x - self.bounds.xmin) / self._cell_w)
        iy = int((y - self.bounds.ymin) / self._cell_h)
        last = self.cells - 1
        return (min(max(ix, 0), last), min(max(iy, 0), last))

    def add(self, key: tuple[int, int], pair: RCJPair) -> None:
        c = pair.circle
        lo = self._cell_of(c.cx - c.r, c.cy - c.r)
        hi = self._cell_of(c.cx + c.r, c.cy + c.r)
        cells = [
            (ix, iy)
            for ix in range(lo[0], hi[0] + 1)
            for iy in range(lo[1], hi[1] + 1)
        ]
        for cell in cells:
            self._buckets.setdefault(cell, set()).add(key)
        self._cells_of[key] = cells

    def remove(self, key: tuple[int, int]) -> None:
        for cell in self._cells_of.pop(key, ()):
            bucket = self._buckets.get(cell)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._buckets[cell]

    def keys_near(self, x: float, y: float) -> Iterable[tuple[int, int]]:
        """Candidate pair keys whose circle may contain ``(x, y)``."""
        return tuple(self._buckets.get(self._cell_of(x, y), ()))


class DynamicRCJ:
    """The RCJ result of two pointsets, maintained under updates.

    Parameters
    ----------
    points_p, points_q:
        Initial datasets (may be empty).
    bounds:
        Coordinate domain for the internal pair grid; the paper's
        ``[0, 10000]²`` by default.  Points outside are legal — edge
        cells absorb them with reduced lookup selectivity.
    page_size:
        Page size of the two backing R*-trees.
    """

    def __init__(
        self,
        points_p: Sequence[Point] = (),
        points_q: Sequence[Point] = (),
        bounds: Rect | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        self.bounds = bounds if bounds is not None else Rect(0, 0, 10000, 10000)
        self.tree_p = bulk_load(list(points_p), page_size=page_size, name="TP")
        self.tree_q = bulk_load(list(points_q), page_size=page_size, name="TQ")
        self._pairs: dict[tuple[int, int], RCJPair] = {}
        self._grid = _PairGrid(self.bounds)
        #: Per side, ``oid -> keys`` of the stored pairs that point is
        #: in, so a delete touches only its own pairs.
        self._keys_of: dict[str, dict[int, set[tuple[int, int]]]] = {
            "P": {},
            "Q": {},
        }
        self._oids: dict[str, set[int]] = {
            "P": {p.oid for p in points_p},
            "Q": {q.oid for q in points_q},
        }
        #: Set by :func:`repro.engine.planner.make_dynamic` on planned
        #: (``backend="auto"``) instances: batches then feed the
        #: calibration observation log.
        self.record_calibration = False
        #: Root span of the last ``apply_batch`` (None when tracing is
        #: off) — the CLI's ``--trace`` sink reads it after each batch.
        self.last_batch_trace = None
        for pair in gabriel_rcj(list(points_p), list(points_q)):
            self._store(pair)

    # ------------------------------------------------------------------
    # result access
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
    # updates
    # ------------------------------------------------------------------
    def insert(self, point: Point, side: Side) -> None:
        """Add ``point`` to dataset ``side`` and repair the result."""
        own, other = self._trees(side)
        if point.oid in self._oids[side]:
            raise ValueError(f"duplicate oid {point.oid} on one side")
        with obs_trace("dynamic-insert", backend="obj", side=side) as sp:
            own.insert(point)
            self._oids[side].add(point.oid)
            # (i) Kill pairs whose ring strictly contains the new point.
            killed = 0
            for key in self._grid.keys_near(point.x, point.y):
                pair = self._pairs.get(key)
                if pair is not None and pair.circle.contains_point(
                    point.x, point.y
                ):
                    self._drop(key)
                    killed += 1
            # (ii) New pairs involve the new point only.
            candidates = [
                self._candidate(point, partner, side)
                for partner in filter_candidates(point, other)
            ]
            verify_circles(self.tree_p, candidates)
            verify_circles(self.tree_q, candidates)
            added = 0
            for cand in candidates:
                if cand.alive:
                    self._store(cand.to_pair())
                    added += 1
            if sp is not None:
                sp.add("killed", killed)
                sp.add("added", added)

    def delete(self, point: Point, side: Side) -> bool:
        """Remove ``point`` from dataset ``side`` and repair the result.

        Raises a named ``KeyError`` (and changes nothing) when no point
        with that oid lives on ``side``; returns True on success.
        """
        own, _other = self._trees(side)
        if point.oid not in self._oids[side]:
            raise KeyError(
                f"no point with oid {point.oid} on side {side!r}"
            )
        with obs_trace("dynamic-delete", backend="obj", side=side) as sp:
            if not own.delete(point):
                raise KeyError(
                    f"no point with oid {point.oid} at "
                    f"({point.x}, {point.y}) on side {side!r}"
                )
            self._oids[side].discard(point.oid)
            # (i) Pairs involving the departed point die.
            involved = list(self._keys_of[side].get(point.oid, ()))
            for key in involved:
                self._drop(key)
            # (ii) Pairs freed by the departure.
            neighborhood, streamed = self._neighborhood(point)
            if sp is not None:
                sp.add("killed", len(involved))
                sp.add("streamed", streamed)
            if neighborhood is None:
                # A coincident twin remains: every ring that contained
                # the departed point still contains the twin.
                return True
            near_p = [z for z, z_side in neighborhood if z_side == "P"]
            near_q = [z for z, z_side in neighborhood if z_side == "Q"]
            candidates: list[Candidate] = []
            for p in near_p:
                for q in near_q:
                    if (p.oid, q.oid) in self._pairs:
                        continue
                    cand = Candidate(p, q)
                    # Only rings the departed point blocked can be new.
                    if cand.circle.contains_point(point.x, point.y):
                        candidates.append(cand)
            verify_circles(self.tree_p, candidates)
            verify_circles(self.tree_q, candidates)
            freed = 0
            for cand in candidates:
                if cand.alive:
                    self._store(cand.to_pair())
                    freed += 1
            if sp is not None:
                sp.add("freed", freed)
        return True

    def apply_batch(self, inserts=(), deletes=()) -> None:
        """Absorb one update batch: validated deletes, then inserts.

        The *sequential oracle*: after validation
        (:func:`validate_batch` — atomic, nothing mutates on a
        malformed batch) the batch is exactly the composition of the
        per-event updates, deletes first.  The columnar backend's
        amortized batch path is equivalence-tested against this.
        """
        inserts = [(point, side) for point, side in inserts]
        deletes = [(point, side) for point, side in deletes]
        validate_batch(
            inserts, deletes, lambda side, oid: oid in self._oids[side]
        )
        t0 = time.perf_counter()
        with obs_trace(
            "dynamic-batch",
            backend="obj",
            n_inserts=len(inserts),
            n_deletes=len(deletes),
        ) as root:
            for point, side in deletes:
                self.delete(point, side)
            for point, side in inserts:
                self.insert(point, side)
            if root is not None:
                root.add("pairs", len(self._pairs))
        self.last_batch_trace = root
        record_batch(
            self,
            "obj",
            len(self.tree_p),
            len(self.tree_q),
            len(inserts) + len(deletes),
            time.perf_counter() - t0,
            root,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _trees(self, side: Side) -> tuple[RTree, RTree]:
        if side == "P":
            return self.tree_p, self.tree_q
        if side == "Q":
            return self.tree_q, self.tree_p
        raise ValueError(f"side must be 'P' or 'Q', got {side!r}")

    @staticmethod
    def _candidate(point: Point, partner: Point, side: Side) -> Candidate:
        if side == "P":
            return Candidate(point, partner)
        return Candidate(partner, point)

    def _store(self, pair: RCJPair) -> None:
        key = pair.key()
        if key in self._pairs:
            return
        self._pairs[key] = pair
        self._grid.add(key, pair)
        self._keys_of["P"].setdefault(key[0], set()).add(key)
        self._keys_of["Q"].setdefault(key[1], set()).add(key)

    def _drop(self, key: tuple[int, int]) -> None:
        if self._pairs.pop(key, None) is not None:
            self._grid.remove(key)
            for side, oid in (("P", key[0]), ("Q", key[1])):
                keys = self._keys_of[side][oid]
                keys.discard(key)
                if not keys:
                    del self._keys_of[side][oid]

    def _merged_stream(self, x: Point) -> Iterator[tuple[float, Point, Side]]:
        """Points of both trees in ascending distance from ``x``."""
        from repro.rtree.inn import incremental_nearest

        streams = [
            ((d, z, "P") for d, z in incremental_nearest(self.tree_p, x.x, x.y)),
            ((d, z, "Q") for d, z in incremental_nearest(self.tree_q, x.x, x.y)),
        ]
        return heapq.merge(*streams, key=lambda t: t[0])

    def _neighborhood(
        self, x: Point
    ) -> tuple[list[tuple[Point, Side]] | None, int]:
        """Candidate endpoints for pairs freed by deleting ``x``: its
        Voronoi neighbourhood (:func:`voronoi_neighbours`) over the
        merged incremental-NN stream of both trees, and the number of
        points pulled from that stream.  The neighbourhood is None when
        a point coincides with ``x`` — no ring can have been blocked by
        ``x`` alone."""
        # The clipping box must cover every live point (each freed
        # pair's witness centre is a convex combination of live
        # points); the domain and x only enlarge it.  Tree MBRs cover
        # the live points of each side.
        span = [self.bounds.xmin, self.bounds.ymin, self.bounds.xmax, self.bounds.ymax]
        for tree in (self.tree_p, self.tree_q):
            if tree.root_pid is not None:
                mbr = tree.mbr()
                span[0] = min(span[0], mbr.xmin)
                span[1] = min(span[1], mbr.ymin)
                span[2] = max(span[2], mbr.xmax)
                span[3] = max(span[3], mbr.ymax)
        span[0] = min(span[0], x.x)
        span[1] = min(span[1], x.y)
        span[2] = max(span[2], x.x)
        span[3] = max(span[3], x.y)
        return voronoi_neighbours(x, self._merged_stream(x), span)

    def __repr__(self) -> str:
        return (
            f"DynamicRCJ(|P|={len(self.tree_p)}, |Q|={len(self.tree_q)}, "
            f"pairs={len(self._pairs)})"
        )
