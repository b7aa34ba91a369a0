"""Composable columnar operator stages: the engine's join algebra.

Every columnar join in the engine — the bulk RCJ, the top-k RCJ and
the other join families — is a declared
``Pipeline(source, stages, sink)`` over *operator stages* that consume
and produce columnar candidate blocks.  The operators wrap the batch
kernels of :mod:`repro.engine.kernels` (KD-tree candidate generation,
blocked Ψ− pruning, batch verification):

========================== ===========================================
operator                   role
========================== ===========================================
:class:`DelaunaySource`    bichromatic Delaunay edges of ``P ∪ Q``,
                           most settled by the local Gabriel
                           lemma (bulk RCJ)
:class:`RangeSource`       candidates within a radius (ε-join)
:class:`KnnSource`         tie-canonical k-NN candidates (kNN-join)
:class:`BandSource`        every pair in canonical ascending-distance
                           order, chunked (k-closest-pairs;
                           :class:`RingBandSource` for the top-k RCJ)
:class:`CellOverlapSource` Voronoi-cell bbox overlaps (common
                           influence join)
:class:`DistanceFilter`    exact ``d² <= ε²`` cut over a block
:class:`PsiPruneFilter`    blocked Ψ− half-plane pruning
:class:`VerifyRings`       batch ring-emptiness verification (of
                           the rows the source left unsettled)
:class:`PolygonIntersectVerify` batched exact convex-SAT verification
                           (CIJ)
:class:`CollectAll`        sink: all pairs, canonical ``(p.oid, q.oid)``
:class:`CollectCanonical`  sink: all pairs, canonical index order
                           (bulk RCJ)
:class:`TakeSmallest`      sink: the first ``k`` pairs of an ordered
                           stream, early stop
========================== ===========================================

Exactness contract (inherited from the kernels): sources over-enumerate
but never miss — every ball query and exact fallback carries a margin
dominating its floating-point error — while filters and verifiers
evaluate the *same IEEE expressions* as the pointwise oracles
(``dx*dx + dy*dy`` distances, the ``(s-p)·(s-q)`` ring predicate, the
closed-bbox/SAT cell test).  A pipeline's pair set is therefore
identical to its oracle's; the cross-family equivalence suite pins
this.

Blocks flow lazily: a source yields bounded
:class:`CandidateBlock`\\ s, every stage transforms one block at a
time, and sinks may stop the source early.  An *ordered* source
(:attr:`Source.ordered`, the band source) emits a stream whose
concatenation is sorted by the canonical key ``(d_sq, p.oid, q.oid)``;
the filter and verify stages only drop pairs, so the order survives
them and ``TakeSmallest`` closes the source at the chunk that brings
its ``k``-th surviving pair — the rest of that band is never pruned or
verified.  Each stage runs under a ``kind="stage"`` span of its name
(:func:`repro.obs.trace.stage_timer`); the planner sums those spans
into the report's stage split.  Sources with a
``probe_side`` accept a ``probes=`` restriction, which is how the
worker pool (:mod:`repro.parallel.pool`) shards any such pipeline.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.spatial import cKDTree

from repro.engine.arrays import PointArray
from repro.engine.kernels import (
    SETTLED_ALIVE,
    UNSETTLED,
    _coord_scale,
    _distinct_sorted,
    _flatten_ball_lists,
    canonical_pair_order,
    cells_intersect,
    halfplane_prune_pairs,
    pack_cells,
    rcj_candidates,
    verify_rings_batch,
)
from repro.obs.trace import add_counter, stage_timer

#: Probe points per ball-query / KNN block.
_PROBE_BLOCK = 8192

#: Relative inflation of every conservative ball-query radius: the
#: query must never *miss* a boundary member to rounding; the exact
#: filter downstream keeps the final say.
_QUERY_INFLATION = 1e-9

#: Ψ− pruners per candidate (probe's nearest inner-side neighbours).
_PRUNERS = 8

#: Pairs a single expanding band may enumerate before the band is
#: halved (memory bound of the band enumeration).
_MAX_BAND_PAIRS = 262_144

#: Growth factor of the expanding band radius.
_BAND_GROWTH = 2.0

#: Bisection steps when shrinking an over-full band; a band of
#: exactly-tied distances cannot be split, so the shrink is best-effort
#: and an over-full band is processed whole rather than dropped.
_MAX_BAND_SHRINKS = 24


@dataclass
class CandidateBlock:
    """One columnar batch of candidate pairs flowing through a pipeline.

    ``p_idx`` / ``q_idx`` are aligned row indices into the context's
    ``parr`` / ``qarr``.  ``d_sq`` (optional) carries the exact squared
    pair distances ``dx*dx + dy*dy`` when a stage has computed them.
    ``verdict`` (optional) carries each row's ring verdict as far as
    the source could settle it (``SETTLED_DEAD``, ``SETTLED_ALIVE`` or
    ``UNSETTLED`` of :mod:`repro.engine.kernels`, from
    :func:`repro.engine.kernels.rcj_candidates`); :class:`VerifyRings`
    verifies only the unsettled rows.  A block without one is wholly
    unsettled.
    """

    p_idx: np.ndarray
    q_idx: np.ndarray
    d_sq: np.ndarray | None = None
    verdict: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.p_idx)

    def __getitem__(self, rows) -> "CandidateBlock":
        """The block restricted to ``rows`` (a slice or a mask)."""
        return CandidateBlock(
            self.p_idx[rows],
            self.q_idx[rows],
            None if self.d_sq is None else self.d_sq[rows],
            None if self.verdict is None else self.verdict[rows],
        )

    @staticmethod
    def empty() -> "CandidateBlock":
        return CandidateBlock(
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.float64),
        )


class JoinContext:
    """Shared execution state of pipeline runs over two pointsets.

    Holds the two columnar pointsets, lazily built (and cached) query
    structures, the candidate counters and ``workers``, the number of
    threads that ran the join (set by
    :func:`repro.parallel.pool.run_sharded`).  Each pool shard runs on
    its own :meth:`view`, which shares the columns and the cached
    query structures but counts alone.  For the common-influence pipeline
    it also carries the object-level pointsets (Voronoi construction is
    geometric, not columnar) and the packed cells.  Stage times live
    only in the trace.
    """

    def __init__(
        self,
        parr: PointArray,
        qarr: PointArray,
        points_p: Sequence | None = None,
        points_q: Sequence | None = None,
    ):
        self.parr = parr
        self.qarr = qarr
        self.counters: dict = {}
        self.workers = 1
        self._points_p = list(points_p) if points_p is not None else None
        self._points_q = list(points_q) if points_q is not None else None
        self._tree_p: cKDTree | None = None
        self._tree_q: cKDTree | None = None
        self._union: tuple[cKDTree, np.ndarray, np.ndarray] | None = None
        self.extra: dict = {}

    def view(self) -> "JoinContext":
        """A context over the same columns and cached query structures
        with fresh counters (one per pool shard: concurrent shards
        share the trees, never a counter dict)."""
        view = copy.copy(self)
        view.counters = {}
        view.extra = {}
        return view

    # -- lazy query structures (built inside the requesting stage's
    # timer, so construction cost lands on the stage that needed it) --
    def tree_p(self) -> cKDTree:
        if self._tree_p is None:
            self._tree_p = cKDTree(self.parr.coords())
        return self._tree_p

    def tree_q(self) -> cKDTree:
        if self._tree_q is None:
            self._tree_q = cKDTree(self.qarr.coords())
        return self._tree_q

    def union(self) -> tuple[cKDTree, np.ndarray, np.ndarray]:
        """``(union_tree, ux, uy)`` over both pointsets (verification)."""
        if self._union is None:
            ux = np.concatenate((self.parr.x, self.qarr.x))
            uy = np.concatenate((self.parr.y, self.qarr.y))
            self._union = (cKDTree(np.column_stack((ux, uy))), ux, uy)
        return self._union

    def points_p(self) -> list:
        if self._points_p is None:
            self._points_p = self.parr.to_points()
        return self._points_p

    def points_q(self) -> list:
        if self._points_q is None:
            self._points_q = self.qarr.to_points()
        return self._points_q


# ----------------------------------------------------------------------
# operator base classes
# ----------------------------------------------------------------------

class Operator:
    """Base of every pipeline operator; ``name`` keys the stage timer."""

    name = "op"

    def describe(self) -> str:
        """One token for the pipeline's ``--explain`` rendering."""
        return self.name


class Source(Operator):
    """Produces candidate blocks from the context's pointsets.

    ``probe_side`` names the pointset whose rows a ``probes=``
    restriction selects (``"p"`` or ``"q"``) — the seam the worker pool
    shards along.  ``None`` marks a source whose output depends on all
    rows at once (distance bands, Voronoi cells): it cannot shard.

    ``ordered`` marks the ordered-stream contract: every block carries
    exact ``d_sq`` and the blocks, concatenated, are sorted by the
    canonical key ``(d_sq, p.oid, q.oid)``.  Stages filter by mask, so
    they keep that order.
    """

    probe_side: str | None = None
    ordered: bool = False

    def blocks(self, ctx: JoinContext) -> Iterator[CandidateBlock]:
        raise NotImplementedError


class Stage(Operator):
    """Transforms one candidate block (filter, prune, verify)."""

    def apply(self, ctx: JoinContext, block: CandidateBlock) -> CandidateBlock:
        raise NotImplementedError


class Sink(Operator):
    """Accumulates blocks into the pipeline result.  Stateful:
    construct a fresh pipeline (hence a fresh sink) per run."""

    name = "collect"

    #: False on a pool shard's sink: its rows only feed the
    #: coordinator's sink, which orders the merged rows, so ``finish``
    #: may hand them back in arrival order.
    ordered = True

    def check_source(self, source: Source) -> None:
        """Reject a source whose stream this sink cannot consume
        (called when a pipeline is declared)."""

    def collect(self, ctx: JoinContext, block: CandidateBlock) -> None:
        raise NotImplementedError

    def done(self) -> bool:
        """True once the sink needs no further blocks (early stop)."""
        return False

    def finish(self, ctx: JoinContext) -> CandidateBlock:
        raise NotImplementedError


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------

class RangeSource(Source):
    """All pairs within (a conservatively inflated) ``eps`` — the
    ε-join candidate generator.

    One sparse fixed-radius tree-vs-tree query per probe batch: each
    block builds a small KD-tree over its ``qarr`` probe rows and joins
    it against the tree over ``parr`` with
    ``cKDTree.sparse_distance_matrix`` (all-C enumeration — measurably
    faster than per-probe ball queries plus Python-level flattening).
    Over-enumerates by the query inflation only; the exact cut is
    :class:`DistanceFilter`'s job.  ``probes`` restricts the probe rows
    (the parallel shards' seam).
    """

    name = "range"
    probe_side = "q"

    def __init__(self, eps: float, probes: np.ndarray | None = None):
        if eps < 0:
            raise ValueError(f"negative epsilon {eps}")
        self.eps = float(eps)
        self.probes = probes

    def describe(self) -> str:
        return f"range(eps={self.eps:g})"

    def blocks(self, ctx: JoinContext) -> Iterator[CandidateBlock]:
        n_p, n_q = len(ctx.parr), len(ctx.qarr)
        if n_p == 0 or n_q == 0:
            return
        with stage_timer(self.name):
            tree_p = ctx.tree_p()
            scale = _coord_scale(ctx.parr.x, ctx.parr.y, ctx.qarr.x, ctx.qarr.y)
            r_query = self.eps * (1.0 + _QUERY_INFLATION) + 1e-12 * scale
            probes = (
                np.arange(n_q, dtype=np.int64)
                if self.probes is None
                else np.asarray(self.probes, dtype=np.int64)
            )
        for bstart in range(0, probes.size, _PROBE_BLOCK):
            with stage_timer(self.name):
                rows = probes[bstart : bstart + _PROBE_BLOCK]
                probe_tree = cKDTree(
                    np.column_stack((ctx.qarr.x[rows], ctx.qarr.y[rows]))
                )
                entries = probe_tree.sparse_distance_matrix(
                    tree_p, r_query, output_type="ndarray"
                )
                if not entries.size:
                    continue
                q_idx = rows[entries["i"].astype(np.int64)]
                p_idx = entries["j"].astype(np.int64)
                block = CandidateBlock(p_idx, q_idx)
            yield block


class KnnSource(Source):
    """Tie-canonical ``k``-nearest-neighbour candidates — the kNN-join
    candidate generator.

    Probes ``parr`` rows against the KD-tree over ``qarr`` (the join's
    asymmetry: neighbours come from ``Q``).  Per probe the ``k``
    winners are ranked by exact squared distance with ties broken by
    ascending ``q.oid`` — :func:`repro.joins.knn.canonical_knn`'s rule,
    evaluated blockwise.  A ``k+1``-wide KD window decides the cut;
    probes whose window boundary ties (within a rounding-dominating
    margin) escalate to an exact ball query, so the canonical cut never
    depends on KD-tree traversal order.
    """

    name = "knn"
    probe_side = "p"

    def __init__(self, k: int, probes: np.ndarray | None = None):
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.k = int(k)
        self.probes = probes

    def describe(self) -> str:
        return f"knn(k={self.k})"

    def blocks(self, ctx: JoinContext) -> Iterator[CandidateBlock]:
        n_p, n_q = len(ctx.parr), len(ctx.qarr)
        if n_p == 0 or n_q == 0:
            return
        k = min(self.k, n_q)
        with stage_timer(self.name):
            tree_q = ctx.tree_q()
            scale = _coord_scale(ctx.parr.x, ctx.parr.y, ctx.qarr.x, ctx.qarr.y)
            abs_margin = (1e-9 * scale) ** 2
            probes = (
                np.arange(n_p, dtype=np.int64)
                if self.probes is None
                else np.asarray(self.probes, dtype=np.int64)
            )
        for bstart in range(0, probes.size, _PROBE_BLOCK):
            with stage_timer(self.name):
                rows = probes[bstart : bstart + _PROBE_BLOCK]
                block = self._block(ctx, tree_q, rows, k, n_q, abs_margin)
            yield block

    def _block(
        self,
        ctx: JoinContext,
        tree_q: cKDTree,
        rows: np.ndarray,
        k: int,
        n_q: int,
        abs_margin: float,
    ) -> CandidateBlock:
        px = ctx.parr.x[rows]
        py = ctx.parr.y[rows]
        window = min(k + 1, n_q)
        dist, nidx = tree_q.query(np.column_stack((px, py)), k=window)
        if window == 1:
            dist, nidx = dist[:, None], nidx[:, None]
        # Exact squared distances and canonical (d_sq, oid) row order.
        dx = ctx.qarr.x[nidx] - px[:, None]
        dy = ctx.qarr.y[nidx] - py[:, None]
        d_sq = dx * dx + dy * dy
        noid = ctx.qarr.oid[nidx]
        order = np.lexsort((noid, d_sq), axis=-1)
        d_sorted = np.take_along_axis(d_sq, order, axis=-1)
        idx_sorted = np.take_along_axis(nidx, order, axis=-1)

        if window > k:
            # Boundary ties (or rounding collisions with points outside
            # the window) escalate to an exact ball query.
            cut = d_sorted[:, k - 1]
            escalate = d_sorted[:, k] <= cut * (1.0 + _QUERY_INFLATION) + abs_margin
        else:
            escalate = np.zeros(rows.size, dtype=bool)

        out_p: list[np.ndarray] = []
        out_q: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        plain = ~escalate
        if plain.any():
            take = min(k, window)
            out_p.append(np.repeat(rows[plain], take))
            out_q.append(idx_sorted[plain, :take].ravel().astype(np.int64))
            out_d.append(d_sorted[plain, :take].ravel())
        for row in np.nonzero(escalate)[0]:
            cut = float(d_sorted[row, k - 1])
            r = float(np.sqrt(cut)) * (1.0 + _QUERY_INFLATION) + 1e-9 * float(
                np.sqrt(abs_margin) if abs_margin > 0 else 0.0
            ) + 1e-12
            near = np.asarray(
                tree_q.query_ball_point(
                    [float(px[row]), float(py[row])], r, return_sorted=False
                ),
                dtype=np.int64,
            )
            ddx = ctx.qarr.x[near] - px[row]
            ddy = ctx.qarr.y[near] - py[row]
            dd = ddx * ddx + ddy * ddy
            keep = dd <= cut  # the exact canonical cutoff
            near, dd = near[keep], dd[keep]
            sel = np.lexsort((ctx.qarr.oid[near], dd))[:k]
            out_p.append(np.full(sel.size, rows[row], dtype=np.int64))
            out_q.append(near[sel])
            out_d.append(dd[sel])
        if not out_p:
            return CandidateBlock.empty()
        return CandidateBlock(
            np.concatenate(out_p), np.concatenate(out_q), np.concatenate(out_d)
        )


class DelaunaySource(Source):
    """The bulk RCJ's candidate generator: the bichromatic edges of one
    Delaunay triangulation of ``P ∪ Q``, with the exact scan for what
    Qhull cannot settle (:func:`repro.engine.kernels.rcj_candidates`),
    followed by the self-join identity filter.

    The block carries each row's ``verdict``: the local Gabriel lemma
    (see :mod:`repro.engine.kernels`) settles almost every Delaunay
    edge from its two opposite vertices, so :class:`VerifyRings` runs
    the KD-tree verification on the rest only.  The triangulation is
    global, so the source emits one block and has no probe side: the
    bulk RCJ does not shard, and the worker pool runs it in-process.
    Timed as the ``candidate`` stage.
    """

    name = "candidate"

    def __init__(self, exclude_same_oid: bool = False):
        self.exclude_same_oid = exclude_same_oid

    def describe(self) -> str:
        return "delaunay"

    def blocks(self, ctx: JoinContext) -> Iterator[CandidateBlock]:
        parr, qarr = ctx.parr, ctx.qarr
        if len(parr) == 0 or len(qarr) == 0:
            return
        q_idx, p_idx, verdict = rcj_candidates(parr, qarr)
        block = CandidateBlock(p_idx, q_idx, verdict=verdict)
        if self.exclude_same_oid:
            block = block[parr.oid[p_idx] != qarr.oid[q_idx]]
        yield block


class BandSource(Source):
    """Every candidate pair in canonical ascending-distance order — an
    ordered source (:attr:`Source.ordered`).

    Pairs are enumerated in expanding-radius bands with a resume cursor
    on the squared pair distance.  Each band is one dual-tree range
    query (``cKDTree.sparse_distance_matrix``) cut by the exact squared
    distance to ``cursor < d_sq <= r²``, so bands are disjoint and
    exhaustive regardless of query rounding.  The band is then sorted
    by ``(d_sq, p.oid, q.oid)`` and yielded in chunks of ``k_hint``,
    ``2·k_hint``, ``4·k_hint``, … pairs, which makes the whole block
    stream canonically ordered: a sink that wants the smallest pairs
    stops at a chunk boundary, and the stages downstream see only the
    prefix it consumed.  A band predicted to exceed
    :data:`_MAX_BAND_PAIRS` is bisected toward the cursor (best effort
    — a run of exactly tied distances cannot be split and is enumerated
    whole, though still consumed chunk by chunk), which bounds memory
    without a fallback join.
    """

    name = "band"
    ordered = True

    def __init__(self, k_hint: int = 1, exclude_same_oid: bool = False):
        self.k_hint = max(int(k_hint), 1)
        self.exclude_same_oid = exclude_same_oid

    def describe(self) -> str:
        return f"band(k_hint={self.k_hint})"

    def blocks(self, ctx: JoinContext) -> Iterator[CandidateBlock]:
        parr, qarr = ctx.parr, ctx.qarr
        n_p, n_q = len(parr), len(qarr)
        if n_p == 0 or n_q == 0:
            return
        with stage_timer(self.name):
            tree_p = ctx.tree_p()
            tree_q = ctx.tree_q()
            # First band: the min(k_hint, |Q|)-th smallest 1-NN distance
            # — at least that many candidate pairs land inside it.
            d1, _ = tree_p.query(qarr.coords(), k=1)
            take = min(self.k_hint, n_q) - 1
            r = float(np.partition(d1, take)[take])
            scale = _coord_scale(parr.x, parr.y, qarr.x, qarr.y)
            if r <= 0.0:
                r = 1e-9 * scale
            span_x = max(float(parr.x.max()), float(qarr.x.max())) - min(
                float(parr.x.min()), float(qarr.x.min())
            )
            span_y = max(float(parr.y.max()), float(qarr.y.max())) - min(
                float(parr.y.min()), float(qarr.y.min())
            )
            diag = float(np.hypot(span_x, span_y)) * (1.0 + _QUERY_INFLATION)
            diag += 1e-9 * scale

        cursor_sq = -np.inf
        pairs_done = 0
        while True:
            with stage_timer(self.name):
                r = min(r, diag)
                within = int(tree_p.count_neighbors(tree_q, r))
                r_lo = float(np.sqrt(max(cursor_sq, 0.0)))
                shrinks = 0
                while (
                    within - pairs_done > _MAX_BAND_PAIRS
                    and shrinks < _MAX_BAND_SHRINKS
                    and r > r_lo * (1.0 + 1e-12) + 1e-300
                ):
                    r = r_lo + (r - r_lo) * 0.5
                    within = int(tree_p.count_neighbors(tree_q, r))
                    shrinks += 1
                band = self._enumerate_band(ctx, tree_p, tree_q, r, cursor_sq)
            add_counter("bands")
            start, size = 0, self.k_hint
            while start < len(band):
                yield band[start : start + size]
                start += size
                size *= 2
            if r >= diag:
                return
            cursor_sq = r * r
            pairs_done = within
            r *= _BAND_GROWTH

    def _enumerate_band(
        self,
        ctx: JoinContext,
        tree_p: cKDTree,
        tree_q: cKDTree,
        r: float,
        cursor_sq: float,
    ) -> CandidateBlock:
        """The pairs with ``cursor_sq < d_sq <= r²``, canonically sorted."""
        parr, qarr = ctx.parr, ctx.qarr
        entries = tree_p.sparse_distance_matrix(
            tree_q, r * (1.0 + _QUERY_INFLATION), output_type="ndarray"
        )
        p_idx = entries["i"].astype(np.int64)
        q_idx = entries["j"].astype(np.int64)
        dx = parr.x[p_idx] - qarr.x[q_idx]
        dy = parr.y[p_idx] - qarr.y[q_idx]
        d_sq = dx * dx + dy * dy
        mask = (d_sq > cursor_sq) & (d_sq <= r * r)
        if self.exclude_same_oid:
            mask &= parr.oid[p_idx] != qarr.oid[q_idx]
        p_idx, q_idx, d_sq = p_idx[mask], q_idx[mask], d_sq[mask]
        order = np.lexsort((qarr.oid[q_idx], parr.oid[p_idx], d_sq))
        return CandidateBlock(p_idx[order], q_idx[order], d_sq[order])


class RingBandSource(BandSource):
    """The band source as the top-k RCJ's candidate stage: timed as
    ``candidate``, like the bulk join's :class:`DelaunaySource`."""

    name = "candidate"


class CellOverlapSource(Source):
    """Voronoi-cell bounding-box overlaps — the common-influence-join
    candidate generator.

    Builds both clipped Voronoi diagrams (the geometric step, reusing
    :func:`repro.joins.common_influence.voronoi_cells` so cell shapes
    are bit-identical to the oracle's) and packs each side once
    (:func:`repro.engine.kernels.pack_cells`: flat vertex columns,
    edge normals and per-edge thresholds, computed once per cell rather
    than once per pair).  Candidate cell pairs are then found vectorized: a
    KD-tree over ``Q``-cell bbox centres queried with a conservatively
    inflated radius, cut down by the exact closed interval-overlap
    test on the bbox edges (the packed vertices' min and max, the
    values :func:`~repro.geometry.polygon.polygon_bbox` gives).
    Overlapping polygons always have overlapping closed bboxes, so the
    candidate set is a superset of the true result; the exact SAT
    decision is :class:`PolygonIntersectVerify`'s, over the packs in
    ``ctx.extra["pack_p"/"pack_q"]``.

    The ``cell_fallback`` counter of the ``cells`` span counts the
    points whose cell was clipped against every other point of its
    side (:func:`~repro.joins.common_influence.voronoi_cells`' all-pairs
    path), the quadratic case.
    """

    name = "cells"

    def __init__(self, bounds=None):
        self.bounds = bounds

    def describe(self) -> str:
        return "cell-overlap"

    def blocks(self, ctx: JoinContext) -> Iterator[CandidateBlock]:
        from repro.joins.common_influence import cij_bounds, voronoi_cells

        points_p = ctx.points_p()
        points_q = ctx.points_q()
        if not points_p or not points_q:
            return
        with stage_timer(self.name):
            bounds = (
                cij_bounds(points_p, points_q)
                if self.bounds is None
                else self.bounds
            )
            pack_p = pack_cells(voronoi_cells(points_p, bounds))
            pack_q = pack_cells(voronoi_cells(points_q, bounds))
            ctx.extra["pack_p"] = pack_p
            ctx.extra["pack_q"] = pack_q

            idx_p = np.flatnonzero(pack_p.count)
            idx_q = np.flatnonzero(pack_q.count)
            if not idx_p.size or not idx_q.size:
                return
            boxes_p = pack_p.boxes()[idx_p]
            boxes_q = pack_q.boxes()[idx_q]
            # KD-tree over Q-cell bbox centres; the query radius bounds
            # the centre distance of any overlapping bbox pair.
            cxq = 0.5 * (boxes_q[:, 0] + boxes_q[:, 2])
            cyq = 0.5 * (boxes_q[:, 1] + boxes_q[:, 3])
            hxq = 0.5 * (boxes_q[:, 2] - boxes_q[:, 0])
            hyq = 0.5 * (boxes_q[:, 3] - boxes_q[:, 1])
            tree = cKDTree(np.column_stack((cxq, cyq)))
            hxq_max = float(hxq.max())
            hyq_max = float(hyq.max())
            cxp = 0.5 * (boxes_p[:, 0] + boxes_p[:, 2])
            cyp = 0.5 * (boxes_p[:, 1] + boxes_p[:, 3])
            hxp = 0.5 * (boxes_p[:, 2] - boxes_p[:, 0])
            hyp = 0.5 * (boxes_p[:, 3] - boxes_p[:, 1])
            scale = _coord_scale(
                np.abs(boxes_p).ravel(), np.abs(boxes_q).ravel()
            )
            radii = np.hypot(hxp + hxq_max, hyp + hyq_max)
            radii = radii * (1.0 + _QUERY_INFLATION) + 1e-9 * scale

        for bstart in range(0, idx_p.size, _PROBE_BLOCK):
            with stage_timer(self.name):
                bend = min(bstart + _PROBE_BLOCK, idx_p.size)
                rows = np.arange(bstart, bend)
                lists = tree.query_ball_point(
                    np.column_stack((cxp[rows], cyp[rows])),
                    radii[rows],
                    return_sorted=False,
                )
                flat, counts = _flatten_ball_lists(lists, rows.size)
                if not flat.size:
                    continue
                prow = np.repeat(rows, counts)
                # Exact closed bbox overlap on the stored edges.
                keep = (
                    (boxes_p[prow, 0] <= boxes_q[flat, 2])
                    & (boxes_q[flat, 0] <= boxes_p[prow, 2])
                    & (boxes_p[prow, 1] <= boxes_q[flat, 3])
                    & (boxes_q[flat, 1] <= boxes_p[prow, 3])
                )
                prow, flat = prow[keep], flat[keep]
                if not prow.size:
                    continue
                block = CandidateBlock(idx_p[prow], idx_q[flat])
            yield block


# ----------------------------------------------------------------------
# filter / verify stages
# ----------------------------------------------------------------------

class DistanceFilter(Stage):
    """The exact ε cut: keep ``dx*dx + dy*dy <= eps*eps`` — term for
    term the R-tree ε-join oracle's leaf predicate — and record the
    distances on the block."""

    name = "distance"

    def __init__(self, eps: float):
        self.eps = float(eps)

    def describe(self) -> str:
        return f"distance(d<=eps)"

    def apply(self, ctx: JoinContext, block: CandidateBlock) -> CandidateBlock:
        dx = ctx.parr.x[block.p_idx] - ctx.qarr.x[block.q_idx]
        dy = ctx.parr.y[block.p_idx] - ctx.qarr.y[block.q_idx]
        d_sq = dx * dx + dy * dy
        keep = d_sq <= self.eps * self.eps
        return CandidateBlock(block.p_idx[keep], block.q_idx[keep], d_sq[keep])


class PsiPruneFilter(Stage):
    """Blocked Ψ− half-plane pruning against each probe's nearest
    inner-side neighbours — the oracle's own blocker predicate
    (:func:`repro.engine.kernels.halfplane_prune_pairs`), so a pruned
    pair is certainly dead and survivors go on to exact verification."""

    name = "prune"

    def apply(self, ctx: JoinContext, block: CandidateBlock) -> CandidateBlock:
        if not len(block):
            return block
        parr, qarr = ctx.parr, ctx.qarr
        k_pr = min(_PRUNERS, len(parr))
        probes = _distinct_sorted(block.q_idx)
        nd, ni = ctx.tree_p().query(
            np.column_stack((qarr.x[probes], qarr.y[probes])), k=k_pr
        )
        if k_pr == 1:
            ni = ni[:, None]
        pos = np.searchsorted(probes, block.q_idx)
        pruned = halfplane_prune_pairs(
            parr.x[block.p_idx],
            parr.y[block.p_idx],
            parr.x[ni[pos]],
            parr.y[ni[pos]],
            qarr.x[block.q_idx],
            qarr.y[block.q_idx],
        )
        return block[~pruned]


class VerifyRings(Stage):
    """Ring-emptiness verification against the union pointset.

    Rows the source settled (a block's ``verdict``, from the local
    Gabriel lemma) keep their verdict; the others — every row of a
    verdict-less block, such as the top-k band's — go through
    :func:`repro.engine.kernels.verify_rings_batch`, the engine's exact
    final predicate.  The union KD-tree is built only when some row is
    unsettled.  Every row still passes through this stage, so the
    ``candidates``, ``pruned`` and ``verified`` counters do not depend
    on who settled it; the ``settled`` counter of the span counts the
    rows the source settled.
    """

    name = "verify"

    def apply(self, ctx: JoinContext, block: CandidateBlock) -> CandidateBlock:
        if not len(block):
            return block
        if block.verdict is None:
            return block[self._verify(ctx, block.p_idx, block.q_idx)]
        alive = block.verdict == SETTLED_ALIVE
        rows = np.flatnonzero(block.verdict == UNSETTLED)
        add_counter("settled", len(block) - rows.size)
        if rows.size:
            alive[rows] = self._verify(
                ctx, block.p_idx[rows], block.q_idx[rows]
            )
        return block[alive]

    @staticmethod
    def _verify(
        ctx: JoinContext, p_idx: np.ndarray, q_idx: np.ndarray
    ) -> np.ndarray:
        union_tree, ux, uy = ctx.union()
        return verify_rings_batch(
            ctx.parr.x[p_idx],
            ctx.parr.y[p_idx],
            ctx.qarr.x[q_idx],
            ctx.qarr.y[q_idx],
            union_tree,
            ux,
            uy,
        )


class PolygonIntersectVerify(Stage):
    """Exact convex-SAT verification of candidate cell pairs, batched:
    :func:`repro.engine.kernels.cells_intersect` over the cells the
    source packed into ``ctx.extra``.

    Each decision is bit-identical to the scalar
    :func:`repro.geometry.polygon.convex_polygons_intersect` that the
    pointwise CIJ oracle calls: the kernel evaluates the same IEEE
    expressions on the same floats (``math.hypot`` edge norms, the
    ``(vx - x1) * nx + (vy - y1) * ny`` projection order, the
    ``min_b > max_a + tol`` test), padding repeats a vertex so no max
    or min moves, and zero-length edges never separate.
    """

    name = "verify"

    def describe(self) -> str:
        return "sat-verify"

    def apply(self, ctx: JoinContext, block: CandidateBlock) -> CandidateBlock:
        if not len(block):
            return block
        keep = cells_intersect(
            ctx.extra["pack_p"], block.p_idx, ctx.extra["pack_q"], block.q_idx
        )
        return block[keep]


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------

class CollectAll(Sink):
    """Accumulate every surviving pair; finish in canonical
    ``(p.oid, q.oid)`` order.  Sources emit disjoint blocks (per-probe
    partitions or cursor-disjoint bands), so no deduplication is
    needed.

    The order is one stable sort of a single packed int64 key,
    ``rank_p[p_idx] * len(qarr) + rank_q[q_idx]``, where a side's rank
    is its oid's position in the side's sorted oid column
    (:func:`oid_ranks`): equal oids share a rank, so ties keep their
    arrival order exactly as ``np.lexsort((q_oid, p_oid))`` would, and
    the key stays below ``len(parr) * len(qarr)`` whatever the oid
    values.  A pool shard's sink (:attr:`Sink.ordered` off) hands back
    its rows unsorted; the coordinator's sink sorts them once.
    """

    def __init__(self):
        self._p: list[np.ndarray] = []
        self._q: list[np.ndarray] = []
        self._d: list[np.ndarray] = []
        self._has_d = True

    def collect(self, ctx: JoinContext, block: CandidateBlock) -> None:
        self._p.append(block.p_idx)
        self._q.append(block.q_idx)
        if block.d_sq is None:
            self._has_d = False
        else:
            self._d.append(block.d_sq)

    def finish(self, ctx: JoinContext) -> CandidateBlock:
        with stage_timer(self.name):
            if not self._p:
                return CandidateBlock.empty()
            p_idx = np.concatenate(self._p)
            q_idx = np.concatenate(self._q)
            d_sq = np.concatenate(self._d) if self._has_d and self._d else None
            if not self.ordered:
                return CandidateBlock(p_idx, q_idx, d_sq)
            order = self._order(ctx, p_idx, q_idx)
            return CandidateBlock(
                p_idx[order],
                q_idx[order],
                None if d_sq is None else d_sq[order],
            )

    def _order(
        self, ctx: JoinContext, p_idx: np.ndarray, q_idx: np.ndarray
    ) -> np.ndarray:
        key = oid_ranks(ctx.parr.oid)[p_idx] * len(ctx.qarr)
        key += oid_ranks(ctx.qarr.oid)[q_idx]
        return np.argsort(key, kind="stable")


def oid_ranks(oid: np.ndarray) -> np.ndarray:
    """Each row's rank in the sorted ``oid`` column (int64): rows with
    equal oids share a rank, and ranks order as the oids do."""
    return np.searchsorted(np.sort(oid), oid).astype(np.int64, copy=False)


class CollectCanonical(CollectAll):
    """Every surviving pair in the bulk RCJ's result order,
    :func:`repro.engine.kernels.canonical_pair_order` (probe row, then
    partner row) — the order that makes pooled output byte-identical
    for every sharding.  The Delaunay source's single block arrives in
    that order already, and then the order check is the only work."""

    def _order(
        self, ctx: JoinContext, p_idx: np.ndarray, q_idx: np.ndarray
    ) -> np.ndarray:
        return canonical_pair_order(p_idx, q_idx)


class TakeSmallest(Sink):
    """The first ``k`` pairs of an ordered stream: the ``k`` smallest
    distances, ascending, ties canonical.

    Needs an ordered source (:attr:`Source.ordered`, i.e. a
    :class:`BandSource` upstream), checked when the pipeline is
    declared.  Its blocks arrive sorted by ``(d_sq, p.oid, q.oid)`` —
    the canonical ascending-diameter order shared with
    :func:`repro.engine.streaming.pair_order_key` — and the stages only
    drop pairs, so the first ``k`` pairs that reach the sink are the
    answer.  The sink stops the source at the chunk that brings its
    ``k``-th pair and finishes with a slice, no sort.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.k = int(k)
        self._blocks: list[CandidateBlock] = []
        self._taken = 0

    def describe(self) -> str:
        return f"take-smallest(k={self.k})"

    def check_source(self, source: Source) -> None:
        if not source.ordered:
            raise ValueError(
                "TakeSmallest needs an ordered source (a BandSource"
                f" upstream), got {source.describe()}"
            )

    def collect(self, ctx: JoinContext, block: CandidateBlock) -> None:
        self._blocks.append(block)
        self._taken += len(block)

    def done(self) -> bool:
        return self._taken >= self.k

    def finish(self, ctx: JoinContext) -> CandidateBlock:
        with stage_timer(self.name):
            if not self._blocks:
                return CandidateBlock.empty()
            return CandidateBlock(
                np.concatenate([b.p_idx for b in self._blocks])[: self.k],
                np.concatenate([b.q_idx for b in self._blocks])[: self.k],
                np.concatenate([b.d_sq for b in self._blocks])[: self.k],
            )


# ----------------------------------------------------------------------
# the pipeline driver
# ----------------------------------------------------------------------

class Pipeline:
    """A declared join: one source, filter/verify stages, one sink.

    ``run`` drives source blocks through the stages one at a time
    (bounded memory, no barrier between blocks), feeds the sink, and
    honours the sink's early stop.  Sinks hold state: build a fresh
    ``Pipeline`` per run.

    Accounting follows the paper's filter-then-verify reading.  With a
    ``verify`` stage, *candidates* are the pairs that reach it (the
    RCJ's ``candidate_count`` figure), ``pruned`` the ones it rejects
    and ``verified`` the ones it passes — for a top-k run, every pair
    of the chunks it consumed, not only the ``k`` pairs it returns.
    Without one, the candidates are everything the source emits (the
    consumed chunks, for an early-stopping sink), ``pruned`` what the
    filters drop and ``verified`` the sink's result.
    ``ctx.counters["candidates"]`` accumulates the candidates; the
    trace gets all three counters, and each stage's ``apply`` runs
    under a stage span of its name.
    """

    def __init__(
        self, source: Source, stages: Sequence[Stage] = (), sink: Sink | None = None
    ):
        self.source = source
        self.stages = tuple(stages)
        self.sink = sink if sink is not None else CollectAll()
        self.sink.check_source(source)

    def describe(self) -> str:
        """The declared operator chain, e.g.
        ``range(eps=50) -> distance(d<=eps) -> collect``."""
        ops = (self.source, *self.stages, self.sink)
        return " -> ".join(op.describe() for op in ops)

    def run(self, ctx: JoinContext) -> CandidateBlock:
        names = [stage.name for stage in self.stages]
        verify = names.index("verify") if "verify" in names else None
        source_blocks = self.source.blocks(ctx)
        try:
            for block in source_blocks:
                if verify is None:
                    _count_candidates(ctx, len(block))
                for i, stage in enumerate(self.stages):
                    if not len(block):
                        break
                    if i == verify:
                        _count_candidates(ctx, len(block))
                    n_in = len(block)
                    with stage_timer(stage.name):
                        block = stage.apply(ctx, block)
                    if verify is None or i == verify:
                        add_counter("pruned", n_in - len(block))
                    if i == verify:
                        add_counter("verified", len(block))
                self.sink.collect(ctx, block)
                if self.sink.done():
                    break
        finally:
            close = getattr(source_blocks, "close", None)
            if close is not None:
                close()
        result = self.sink.finish(ctx)
        if verify is None:
            add_counter("verified", len(result))
        return result


def _count_candidates(ctx: JoinContext, n: int) -> None:
    ctx.counters["candidates"] = ctx.counters.get("candidates", 0) + n
    add_counter("candidates", n)
