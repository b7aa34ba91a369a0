"""Vectorized batch kernels for the RCJ hot path.

The pointwise algorithms (:mod:`repro.core.inj`, :mod:`repro.core.bij`)
process one probe point — or one leaf — at a time through Python
objects.  The kernels here process whole pointsets through numpy
arrays:

- :func:`rcj_candidates` — candidate generation: the bichromatic
  edges of one Delaunay triangulation of the distinct sites of
  ``P ∪ Q`` (the Gabriel argument below), plus an exact per-probe scan
  for what Qhull cannot settle.  Each row carries a verdict: the local
  Gabriel lemma (below) settles almost every Delaunay edge from its
  two opposite vertices.
- :func:`verify_rings_batch` — batch ring-emptiness verification of
  the rows left unsettled: the
  per-circle loop of :mod:`repro.core.verification` is replaced by a
  nearest-blocker pass.  One KD-tree query fetches the few union points
  nearest every candidate midpoint, and one vectorized evaluation of
  the exact dot predicate over them settles almost every ring: a
  blocker lies nearer the midpoint than the ring's own endpoints.  Only
  rings whose whole window lies inside the ring without blocking (ties
  on the boundary, dead rows of a stale tree) fall back to a ball query
  over every point inside them.  Work and memory per ring are therefore
  bounded by the window, not by how many points a wide ring holds.
- :func:`cells_intersect` — outside the RCJ, the common influence
  join's verifier: one batched separating-axis test over every
  candidate pair of Voronoi cells, packed once per join by
  :func:`pack_cells`, bit-identical to the scalar
  :func:`repro.geometry.polygon.convex_polygons_intersect`.

Candidates: the Gabriel argument
--------------------------------
A pair ``<p, q>`` joins when its ring (the circle with diameter ``pq``)
holds no point of ``P ∪ Q`` strictly inside.  That is the Gabriel edge
condition over the union's distinct sites, and every Gabriel edge is a
Delaunay edge (Matula & Sokal 1980; the paper's Gabriel argument).  So
the bichromatic Delaunay edges of the union are a candidate superset,
with two degenerate additions: when four or more sites lie on one
empty circle (exactly, or within Qhull's in-circle resolution
:data:`repro.core.gabriel.QHULL_ROUND`) the triangulation keeps only
some of their pairwise edges, so such clusters are recovered from
equal circumcircles (:func:`_cocircular_site_pairs`); and coincident
``P``/``Q`` sites, whose radius-zero ring is trivially empty, are
emitted directly.

The stage is one Qhull run plus linear passes over sorted arrays
(:func:`_delaunay_candidates`).  One stable sort of ``P ∪ Q`` by
``(x, y)`` yields the distinct sites, each point's site and the CSR
membership lists (which ``P`` rows and which ``Q`` rows sit at each
site, :func:`_site_groups`); the triangulation's edges are read off
its neighbour table once each
(:func:`repro.core.gabriel.site_edges`); the candidate keys are
deduplicated by one sort.  The pairs leave in canonical order, so the
result sink has nothing to sort (:func:`canonical_pair_order`).

Qhull triangulates the *centred* sites
(:func:`repro.core.gabriel.checked_delaunay`): far from the origin,
raw coordinates spend their low bits on the offset, and Qhull then
drops true Gabriel edges.  Three frame vertices ride along, the
corners of an equilateral triangle of circumradius ``4h`` about the
centre of the sites' bounding box (``h`` its half-diagonal), so no
site lies on the triangulated hull.  Clamped data piles long collinear
runs onto its bounding box, and on the hull each run lifts to a
vertical coplanar facet that cost Qhull 3-4x the rest of the
triangulation.  A frame vertex is more than ``2h`` from that centre,
beyond every site pair's ring, so it blocks no ring and a true pair
stays a Delaunay edge; edges touching the frame are dropped
(:func:`repro.core.gabriel.site_edges`).  Circumcircles are computed
in the same centred coordinates, each relative to one of its
triangle's vertices so that its rounding scales with the triangle,
not with its distance from the centroid; every exact predicate stays
on raw coordinates.

What Qhull cannot settle takes the exact route, a per-probe scan
(:func:`_scan_candidates`):

- *Refused inputs.*  ``checked_delaunay`` refuses fewer than four
  sites, a ``QhullError``, near-flat sets and simplices indexing past
  the sites; then every probe is scanned.
- *Unresolved sites* (:func:`repro.core.gabriel.unresolved_sites`).
  Qhull may leave a site out of every simplex (a near-coincident
  site, ``tri.coplanar``), and a simplex whose circumradius is so
  small against the sites' extent that Qhull's in-circle resolution
  reaches an eighth of it cannot tell a cocircular tie from a
  neighbour.  A pair that touches neither kind of site is still
  found: its ring is empty of the other sites too, so it is a
  Delaunay edge of them.  So only the unresolved sites' own rows are
  scanned: ``Q`` rows probe ``P`` and ``P`` rows probe ``Q``.  Ψ−
  pruning is valid with pruners from either side, because the ring
  must be empty of the whole union.  The extra cost grows with the
  number of unresolved sites only.

Verification: the local Gabriel lemma
-------------------------------------
Let ``ab`` be an edge of a Delaunay triangulation, with adjacent
triangles ``abc`` and ``abd``.  Then ``ab`` is a Gabriel edge (its
ring holds no site strictly inside) iff neither ``c`` nor ``d`` is
strictly inside the ring.  Proof: a point ``x`` lies strictly inside
the ring iff the angle ``axb`` exceeds 90°, and a point ``x`` on
``c``'s side of the line ``ab`` lies strictly inside the circumcircle
of ``abc`` iff ``axb`` exceeds ``acb`` (inscribed angles over the
chord ``ab``; points of the open chord lie inside both).  If ``c`` is
not inside the ring, ``acb <= 90°``, so the half of the ring on
``c``'s side lies inside that circumcircle, which holds no site.  The
same holds on ``d``'s side, and a side without a triangle is outside
the hull, where there are no sites.  A frame vertex is never inside a
site pair's ring (:func:`repro.core.gabriel.checked_delaunay`), so it
never blocks.

:func:`_local_gabriel` applies the lemma to every site edge, with the
oracle's own predicate ``(s - a) . (s - b) < 0`` on the raw site
coordinates (the expression :func:`verify_rings_batch` evaluates, and
IEEE products commute, so the edge's orientation does not matter).
The opposite vertices are read off ``tri.neighbors``
(:func:`repro.core.gabriel.site_edge_slots`; the neighbour's far
vertex is its vertex sum minus the shared edge's).  A *dead* verdict
is exact on its own: the blocker is a real site.  An *alive* verdict
rests on the triangulation being Delaunay in the raw coordinates,
which Qhull guarantees only up to its resolution, so it is settled
only when three guards hold; otherwise the row is left to
:func:`verify_rings_batch`:

(a) *No unresolved site* (:func:`repro.core.gabriel.unresolved_sites`:
    none left out of every simplex, no simplex below Qhull's
    resolution), else nothing is settled.  A dropped site is no
    triangle's vertex, so no empty-circle property speaks for it: in
    ``tests/engine/test_arrays_kernels.py::NEAR_COINCIDENT`` a site one
    ulp from another is dropped and blocks a ring whose edge touches
    neither (``t = -2.13e-14``).  Leaving only the edges that touch an
    unresolved site to verification settled 172 of 11,446 edges
    wrongly over 704 fuzz cases.
(b) *The local Delaunay self-check*, else nothing is settled: no
    neighbour's far vertex lies inside a simplex's circumcircle by more
    than 1000 times the circle's on-circle tolerance
    (:func:`repro.core.gabriel.triangle_circles`), and no such offset
    is nan (a degenerate simplex).  By the Delaunay lemma, a
    triangulation that is locally Delaunay at every edge is Delaunay;
    the check is three distance tests per simplex
    (:func:`_neighbour_ties`).
(c) *Neither simplex next to the edge is tied*: no far vertex of its
    neighbours lies within that tolerance of its circle.  Inside the
    band the computation cannot tell inside from outside, and a
    cocircular face may be carved either way: on a regular 26-gon
    (the shrunk fuzz case in ``TestLocalGabriel``) a chord's blocker is
    neither of its opposite vertices.  Without (c), 34 edges were
    settled wrongly over 6,060 fuzz cases; with (a)-(c), none of
    33,928 settled edges.  The same flags pick the simplices
    :func:`_cocircular_site_pairs` probes for clusters.

Coincident ``P``/``Q`` rows are settled alive (a ring of radius zero
holds nothing), and the cocircular extras and scanned rows are never
settled.  On ``uniform_pair(20000, 25000, seed=1)`` the lemma settles
all but 140 of 66,473 rows, and the verify stage builds its union KD-tree
only when some row is unsettled.

Exactness
---------
The engine is *filter conservative, verify exact*.  Filtering (the
Delaunay candidates, the scan's coverage certificate and its Ψ−
pruning) may only ever discard a pair when a blocker provably exists
under the oracle's own predicate — every shortcut carries a margin
dominating its floating-point error, and anything uncertain is kept as
a candidate.  The final batch verification then evaluates the *same
IEEE form* as the brute-force oracle (:mod:`repro.core.brute`) and the
object-level geometry (:mod:`repro.geometry.ring`): differences first,
two products, one sum, strict comparison against zero — bit-for-bit
the oracle's test, as is the local Gabriel lemma's predicate on the
rows it settles.  Together the two halves make the array engine
return result sets identical to the pointwise algorithms; the
cross-algorithm equivalence suite and the differential fuzz suite pin
this, the fuzz row by row for the settled verdicts.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from repro.core.gabriel import (
    TriangleCircles,
    checked_delaunay,
    framed_sites,
    recover_cocircular_pairs,
    recoverable_radius_bound,
    site_edge_slots,
    triangle_circles,
    unresolved_sites,
)
from repro.engine.arrays import PointArray
from repro.obs.trace import add_counter, set_attr, stage_timer

#: Neighbour window of the exact route's per-probe scan.
DEFAULT_K0 = 64

#: Verdicts of candidate rows (:func:`rcj_candidates`): decided by the
#: local Gabriel lemma (dead or alive), or left to
#: :func:`verify_rings_batch`.  The order matters: a row emitted twice
#: keeps its smallest verdict, so a settled one wins.
SETTLED_DEAD = 0
SETTLED_ALIVE = 1
UNSETTLED = 2

#: Safety factor of the coverage certificate: a neighbour's cone is
#: computed from ``r_i / 0.95`` instead of ``r_i``, giving every
#: certificate-based discard a >= 5% relative margin over the exact
#: blocker predicate.
_COVER_SAFETY = 0.95

#: Pruners used per probe by the exact scan.
_SCAN_PRUNERS = 32

#: Relative inflation of verification ball queries; dominates the
#: rounding of midpoint/radius while the exact dot predicate keeps the
#: final say (same convention as :func:`repro.core.gabriel.gabriel_rcj`).
_BALL_INFLATION = 1e-7

#: Union points nearest each ring's midpoint that settle the ring
#: before any ball query: a blocker is nearer the midpoint than the
#: ring's own endpoints, so the nearest few decide almost every ring.
_NEAR_K = 4


def _coord_scale(*arrays: np.ndarray) -> float:
    """Magnitude scale of the input coordinates (>= 1), the basis of
    every absolute inflation margin."""
    scale = 1.0
    for arr in arrays:
        if len(arr):
            scale = max(scale, float(np.abs(arr).max()))
    return scale


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D integer array, ascending.

    One sort and an adjacent-difference mask: the same result as
    ``np.unique``, which costs many times more on these key arrays.
    """
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _flatten_ball_lists(lists, count: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR-flatten ``query_ball_point`` output into ``(flat, counts)``."""
    counts = np.fromiter((len(lst) for lst in lists), np.int64, count=count)
    total = int(counts.sum())
    flat = np.empty(total, dtype=np.int64)
    pos = 0
    for lst in lists:
        n = len(lst)
        if n:
            flat[pos : pos + n] = lst
            pos += n
    return flat, counts


def halfplane_prune_pairs(
    cx: np.ndarray,
    cy: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
) -> np.ndarray:
    """Ψ− pruning of loose candidates against per-row pruner blocks.

    Row ``m`` asks: does any pruner ``p[m, i]`` lie strictly inside the
    ring of ``<c[m], q[m]>``?  Shapes: ``cx, cy, qx, qy`` are ``(M,)``,
    ``px, py`` are ``(M, k)``.  Returns a boolean ``(M,)`` prune mask.
    The dot form ``(c - p_i) . (p_i - q)`` is evaluated differences
    first — term-for-term the IEEE negation of the oracle's blocker
    test, so the mask can never disagree with it.
    """
    t = (cx[:, None] - px) * (px - qx[:, None]) + (cy[:, None] - py) * (
        py - qy[:, None]
    )
    return np.any(t > 0.0, axis=1)


def cover_arcs(
    qx: np.ndarray,
    qy: np.ndarray,
    nx: np.ndarray,
    ny: np.ndarray,
    ndist: np.ndarray,
    r_floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-probe covered direction arcs of the stopping certificate.

    Take a probe ``q`` whose window radius (the distance of its
    ``k``-th neighbour) is ``d_k`` and a window neighbour ``i`` at
    distance ``r_i``.  For any point ``x`` beyond the window at angle
    ``t`` from ``q``'s direction to ``i``::

        |qx| cos(t) > r_i   =>   (x - i) . (i - q) > 0,

    i.e. ``i`` lies strictly inside the ring of ``<x, q>`` and the pair
    is dead (Lemma 1).  So ``i`` covers the open cone of directions
    within ``arccos(max(r_i, r_floor) / (0.95 d_k))`` of its own
    direction — and since the blocking inequality only strengthens with
    distance, the arc certifies *every* point beyond the window radius
    in those directions, not just the nearest.  The ``0.95`` safety
    factor leaves a >= 5 % relative margin on the blocker predicate,
    orders of magnitude above IEEE evaluation error.  A coincident
    neighbour has a degenerate Ψ− region and covers nothing.
    ``r_floor`` (a tiny length on the dataset's coordinate scale) keeps
    the certificate's absolute margin above IEEE noise for
    near-coincident neighbours.

    Returns ``(start_sorted, end_cummax, any_valid)``: the arcs sorted
    by start angle with a running maximum over end angles (the standard
    circular-coverage scan structure), plus a ``(B,)`` mask of rows
    owning at least one non-degenerate arc.  A direction ``t`` is
    certified covered when some arc with ``start <= t`` has running end
    ``>= t`` (checked at ``t`` and ``t ± 2π`` for wrap-around).
    """
    b, k = nx.shape
    d_k = ndist[:, -1]
    dx = nx - qx[:, None]
    dy = ny - qy[:, None]
    phi = np.arctan2(dy, dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(ndist, r_floor) / (_COVER_SAFETY * d_k[:, None])
    width = np.arccos(np.clip(ratio, 0.0, 1.0))
    valid = (ndist > 0.0) & (width > 0.0) & np.isfinite(width)
    any_valid = valid.any(axis=1)

    # Replace non-covering entries by a copy of the row's first covering
    # cone: harmless to the union, and it keeps the row-wise sorted
    # chain check free of sentinel gaps.
    first = np.argmax(valid, axis=1)
    rows = np.arange(b)
    start = phi - width
    end = phi + width
    start = np.where(valid, start, start[rows, first][:, None])
    end = np.where(valid, end, end[rows, first][:, None])

    order = np.argsort(start, axis=1)
    start_sorted = np.take_along_axis(start, order, axis=1)
    end_cummax = np.maximum.accumulate(
        np.take_along_axis(end, order, axis=1), axis=1
    )
    return start_sorted, end_cummax, any_valid


def _arcs_contain(
    start_sorted: np.ndarray, end_cummax: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Membership of directions in one probe's covered arc union.

    ``start_sorted``/``end_cummax`` are a single row of
    :func:`cover_arcs`; ``theta`` is a ``(M,)`` array of directions in
    ``[-π, π]``.  A direction is covered when some arc with
    ``start <= t`` has running end ``>= t``, checked at ``t`` and its
    ``± 2π`` images.  Runs of overlapping arcs merge into a few disjoint
    intervals ``[start, running end]`` first (a new interval opens
    where a start passes the running end before it), so the test is a
    handful of vectorized comparisons per direction.
    """
    opens = np.ones(len(start_sorted), dtype=bool)
    opens[1:] = start_sorted[1:] > end_cummax[:-1]
    first = np.flatnonzero(opens)
    lows = start_sorted[first]
    highs = end_cummax[np.append(first[1:] - 1, len(end_cummax) - 1)]
    covered = np.zeros(theta.shape, dtype=bool)
    for shift in (0.0, 2.0 * np.pi, -2.0 * np.pi):
        t = theta + shift
        for low, high in zip(lows.tolist(), highs.tolist()):
            covered |= (t >= low) & (t <= high)
    return covered


def _query_window(
    tree_p: cKDTree, qx: np.ndarray, qy: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    ndist, nidx = tree_p.query(np.column_stack((qx, qy)), k=k)
    if k == 1:
        ndist = ndist[:, None]
        nidx = nidx[:, None]
    return ndist, nidx


def knn_candidate_blocks(
    parr: PointArray,
    qarr: PointArray,
    k0: int = DEFAULT_K0,
    tree_p: cKDTree | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate generation: ``(q_index, p_index)`` candidate pair
    arrays, the rows of :func:`rcj_candidates` without their
    verdicts."""
    q_idx, p_idx, _verdict = rcj_candidates(parr, qarr, k0, tree_p)
    return q_idx, p_idx


def rcj_candidates(
    parr: PointArray,
    qarr: PointArray,
    k0: int = DEFAULT_K0,
    tree_p: cKDTree | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate generation: ``(q_index, p_index, verdict)`` arrays.

    The returned pair set is a superset of every true RCJ pair ``<p, q>``
    with ``p`` from ``parr`` and ``q`` from ``qarr``.  Duplicates are
    removed and the pairs sorted by ``q_index``, then ``p_index``.
    Each row carries a verdict (:data:`SETTLED_DEAD`,
    :data:`SETTLED_ALIVE` or :data:`UNSETTLED`): the local Gabriel
    lemma decides most Delaunay edges (see the module docstring), and
    :func:`verify_rings_batch` must decide the unsettled rest against
    the full union.

    The candidates are the bichromatic edges of one Delaunay
    triangulation of the distinct sites of ``parr ∪ qarr``
    (:func:`_delaunay_candidates`; see the module docstring).  Inputs
    the triangulation refuses send every probe through the exact scan
    (:func:`_scan_candidates`), and sites the triangulation cannot
    settle send their own rows through it.

    Parameters
    ----------
    parr, qarr:
        The inner (candidate) and outer (probe) pointsets.
    k0:
        Neighbour window width of the exact scan (clamped to the size
        of the scanned side).
    tree_p:
        Optional prebuilt KD-tree over ``parr``'s coordinates (used by
        the exact scan only).

    Under an active trace the wall time lands in the ``candidate``
    stage span (:func:`repro.obs.trace.stage_timer`), with counters
    ``sites`` (distinct sites triangulated) and ``scanned_rows`` (rows
    sent to the exact scan).  When the lemma settles nothing, the
    span's ``settle_off`` attribute says why: ``"refused"`` (no
    triangulation), ``"unresolved-sites"`` (guard (a)) or
    ``"local-delaunay-violation"`` (guard (b)).
    """
    n_p, n_q = len(parr), len(qarr)
    if n_p == 0 or n_q == 0:
        none = np.empty(0, np.int64)
        return none, none, np.empty(0, np.int8)
    r_floor = 1e-12 * _coord_scale(parr.x, parr.y, qarr.x, qarr.y)
    with stage_timer("candidate"):
        found = _delaunay_candidates(parr, qarr)
        if found is None:  # refused: every probe takes the exact scan
            set_attr(settle_off="refused")
            none = np.empty(0, np.int64)
            found = (
                none, none, np.empty(0, np.int8), none,
                np.arange(n_q, dtype=np.int64),
            )
        q_idx, p_idx, verdict, unresolved_p, unresolved_q = found
        add_counter("scanned_rows", unresolved_p.size + unresolved_q.size)
        out_q, out_p = [q_idx], [p_idx]
        if unresolved_q.size:
            if tree_p is None:
                tree_p = cKDTree(parr.coords())
            rows, cols = _scan_candidates(
                qarr.x[unresolved_q], qarr.y[unresolved_q], parr, tree_p,
                k0, r_floor,
            )
            out_q.append(unresolved_q[rows])
            out_p.append(cols)
        if unresolved_p.size:
            rows, cols = _scan_candidates(
                parr.x[unresolved_p], parr.y[unresolved_p], qarr,
                cKDTree(qarr.coords()), k0, r_floor,
            )
            out_q.append(cols)
            out_p.append(unresolved_p[rows])
        q_idx = np.concatenate(out_q)
        p_idx = np.concatenate(out_p)
        codes = np.full(q_idx.size, UNSETTLED, dtype=np.int64)
        codes[: verdict.size] = verdict  # the scan's rows stay unsettled
        # One sort of the keys with the verdict in their two low bits:
        # the first row of each key keeps its smallest verdict.
        packed = np.sort((q_idx * np.int64(n_p) + p_idx) * 4 + codes)
        key = packed >> 2
        first = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        key = key[first]
        verdict = (packed[first] & 3).astype(np.int8)
    return key // n_p, key % n_p, verdict


def _scan_candidates(
    probe_x: np.ndarray,
    probe_y: np.ndarray,
    inner: PointArray,
    tree: cKDTree,
    k0: int,
    r_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The exact route: every partner each probe may have in ``inner``.

    Per probe: the ``k0`` nearest ``inner`` points form the window, and
    every point beyond it whose direction falls in an arc the window
    covers (:func:`cover_arcs`) is certified blocked.  The window and
    the uncovered residue are then pruned with the exact half-plane
    predicate (:func:`halfplane_prune_pairs`) against the probe's
    :data:`_SCAN_PRUNERS` nearest neighbours, and the survivors are
    returned as ``(probe_row, inner_index)`` arrays.  Work is linear in
    ``len(inner)`` per probe.
    """
    n = len(inner)
    k = min(k0, n)
    k_pr = min(_SCAN_PRUNERS, k)
    ix, iy = inner.x, inner.y
    ndist, nidx = _query_window(tree, probe_x, probe_y, k)
    starts, ends, any_valid = cover_arcs(
        probe_x, probe_y, ix[nidx], iy[nidx], ndist, r_floor
    )
    out_rows: list[np.ndarray] = []
    out_idx: list[np.ndarray] = []
    for row in range(len(probe_x)):
        qx = probe_x[row]
        qy = probe_y[row]
        cand = nidx[row].astype(np.int64)
        if k < n:
            dx = ix - qx
            dy = iy - qy
            d2 = dx * dx + dy * dy
            # Slightly deflated window radius: over-including points
            # that tie with (or round against) the k-th neighbour is
            # safe — duplicates are unioned away by the caller.
            far = np.nonzero(d2 >= ndist[row, -1] ** 2 * (1.0 - 1e-9))[0]
            if far.size and any_valid[row]:
                # Rows without a single valid cone carry only zero-width
                # placeholder arcs, which certify nothing: skip the arc
                # filter and let the exact half-plane test see every
                # point.
                theta = np.arctan2(dy[far], dx[far])
                far = far[~_arcs_contain(starts[row], ends[row], theta)]
            cand = np.concatenate((cand, far))
        pruners = nidx[row, :k_pr]
        pruned = halfplane_prune_pairs(
            ix[cand],
            iy[cand],
            np.broadcast_to(ix[pruners], (cand.size, k_pr)),
            np.broadcast_to(iy[pruners], (cand.size, k_pr)),
            np.full(cand.size, qx),
            np.full(cand.size, qy),
        )
        keep = cand[~pruned]
        out_rows.append(np.full(keep.size, row, dtype=np.int64))
        out_idx.append(keep)
    if not out_rows:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_rows), np.concatenate(out_idx)


def _cross_emit(
    a_sites: np.ndarray,
    b_sites: np.ndarray,
    tags: np.ndarray,
    p_flat: np.ndarray,
    p_off: np.ndarray,
    q_flat: np.ndarray,
    q_off: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand site pairs into all (P member, Q member) index pairs.

    ``p_flat``/``q_flat`` hold member indices grouped by site (CSR
    layout with offset arrays ``p_off``/``q_off``).  For every site pair
    ``(a, b)`` the full cross product of ``a``'s P members with ``b``'s
    Q members is emitted, fully vectorized, each row with its site
    pair's entry of ``tags``.
    """
    na = p_off[a_sites + 1] - p_off[a_sites]
    nb = q_off[b_sites + 1] - q_off[b_sites]
    sizes = na * nb
    keep = sizes > 0
    a_sites, b_sites, tags = a_sites[keep], b_sites[keep], tags[keep]
    na, nb, sizes = na[keep], nb[keep], sizes[keep]
    total = int(sizes.sum())
    if total == 0:
        none = np.empty(0, np.int64)
        return none, none, tags[:0]
    edge = np.repeat(np.arange(sizes.size), sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    local = np.arange(total) - offsets[edge]
    p_idx = p_flat[p_off[a_sites[edge]] + local // nb[edge]]
    q_idx = q_flat[q_off[b_sites[edge]] + local % nb[edge]]
    return p_idx, q_idx, tags[edge]


def _site_groups(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct sites of the points ``(x, y)`` and who lives where.

    One stable sort by ``(x, y)``; a new site starts wherever a
    coordinate changes.  Returns ``(sites, member_site, order)``: the
    ``(s, 2)`` sites in ascending ``(x, y)`` order, each point's site
    index, and the sort permutation, which lists the points grouped by
    site and by index within a site.  The sites and ``member_site``
    are those of ``np.unique(..., axis=0, return_inverse=True)``; both
    merge ``-0.0`` with ``0.0``, and here a site keeps its first
    point's sign of zero, which no exact predicate reads.
    """
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    member_site = np.empty(order.size, dtype=np.int64)
    member_site[order] = np.cumsum(first) - 1
    return np.column_stack((xs[first], ys[first])), member_site, order


def _delaunay_candidates(
    parr: PointArray, qarr: PointArray
) -> (
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
):
    """Candidate superset from one Delaunay triangulation of the
    distinct sites of ``parr ∪ qarr``, with the local Gabriel verdicts.

    A true pair's ring is empty over the union, so the pair is a
    Gabriel edge of its sites and (up to cocircular degeneracies,
    recovered from equal-circumcircle clusters exactly as
    :func:`repro.core.gabriel.gabriel_rcj` does) a Delaunay edge of
    them.  Coincident P/Q sites, whose radius-zero ring is trivially
    empty, are emitted directly.

    Returns ``(q_index, p_index, verdict, unresolved_p, unresolved_q)``:
    the candidate pairs the triangulation settles, each with its row
    verdict (:func:`_local_gabriel` on Delaunay edges, alive on
    coincident sites, unsettled on cocircular extras; every row
    unsettled when guard (a) or (b) fails, see the module docstring),
    plus the ``parr`` and ``qarr`` rows at the sites it cannot settle
    (:func:`repro.core.gabriel.unresolved_sites`), whose pairs the
    caller must find another way.  Returns ``None`` when the
    triangulation cannot be trusted
    (:func:`repro.core.gabriel.checked_delaunay`).
    """
    n_p = len(parr)
    sites, member_site, order = _site_groups(
        np.concatenate((parr.x, qarr.x)), np.concatenate((parr.y, qarr.y))
    )
    n_sites = len(sites)
    tri = checked_delaunay(sites)
    if tri is None:
        return None
    add_counter("sites", n_sites)

    circles = triangle_circles(tri)
    far, tied, violated = _neighbour_ties(tri, circles)
    unresolved = unresolved_sites(tri, circles.small)
    edges, simplex, slot = site_edge_slots(tri)
    settle_off = (
        "unresolved-sites" if unresolved.any()
        else "local-delaunay-violation" if violated
        else None
    )
    if settle_off is None:
        verdict = _local_gabriel(sites, tri, edges, simplex, slot, far, tied)
        coincident = SETTLED_ALIVE
    else:
        set_attr(settle_off=settle_off)
        verdict = np.full(len(edges), UNSETTLED, dtype=np.int8)
        coincident = UNSETTLED
    extra = _cocircular_site_pairs(tri, circles, tied)
    if len(extra):
        edges = np.concatenate((edges, extra))
        verdict = np.concatenate(
            (verdict, np.full(len(extra), UNSETTLED, dtype=np.int8))
        )

    # CSR membership: which P rows / probe rows live at each site, read
    # off the stable site order (by site, then by row).
    p_flat = order[order < n_p]
    p_off = np.zeros(n_sites + 1, dtype=np.int64)
    np.cumsum(np.bincount(member_site[:n_p], minlength=n_sites), out=p_off[1:])
    q_flat = order[order >= n_p] - n_p
    q_off = np.zeros(n_sites + 1, dtype=np.int64)
    np.cumsum(np.bincount(member_site[n_p:], minlength=n_sites), out=q_off[1:])

    out_p: list[np.ndarray] = []
    out_q: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    for a, b, tags in (
        (edges[:, 0], edges[:, 1], verdict),
        (edges[:, 1], edges[:, 0], verdict),
        # Coincident P/Q sites: the degenerate self-"edge", whose ring
        # of radius zero nothing can block.
        (
            np.arange(n_sites, dtype=np.int64),
            np.arange(n_sites, dtype=np.int64),
            np.full(n_sites, coincident, dtype=np.int8),
        ),
    ):
        pi, qi, vi = _cross_emit(a, b, tags, p_flat, p_off, q_flat, q_off)
        out_p.append(pi)
        out_q.append(qi)
        out_v.append(vi)

    unresolved = unresolved[member_site]
    return (
        np.concatenate(out_q),
        np.concatenate(out_p),
        np.concatenate(out_v),
        np.flatnonzero(unresolved[:n_p]),
        np.flatnonzero(unresolved[n_p:]),
    )


def _neighbour_ties(
    tri: Delaunay, circles: TriangleCircles
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Where each simplex's circle stands against its neighbours' far
    vertices: ``(far, tied, violated)``.

    ``far[i, k]`` is the vertex of the neighbour across slot ``k`` of
    simplex ``i`` that ``i`` does not share (its vertex sum minus the
    shared edge's; 0 where there is no neighbour).  With ``off`` that
    vertex's distance from ``i``'s circumcircle (negative inside) and
    ``tol`` 1000 times the circle's on-circle tolerance, ``tied[i]``
    marks a simplex with some far vertex within ``tol`` of its circle
    (guard (c), and the cocircular flag of
    :func:`_cocircular_site_pairs`), and ``violated`` says that some
    far vertex lies inside a circle by more than ``tol``, or that some
    offset is nan: the triangulation fails the local Delaunay
    self-check (guard (b)).  Circles live in the triangulation's
    centred coordinates.
    """
    simplices, neighbors, points = tri.simplices, tri.neighbors, tri.points
    has = neighbors >= 0
    vertex_sum = simplices[:, 0] + simplices[:, 1] + simplices[:, 2]
    far = np.where(
        has,
        vertex_sum[np.maximum(neighbors, 0)] - vertex_sum[:, None] + simplices,
        0,
    )
    with np.errstate(invalid="ignore"):
        off = (
            np.hypot(
                points[far, 0] - circles.ux[:, None],
                points[far, 1] - circles.uy[:, None],
            )
            - circles.radius[:, None]
        )
    tol = 1e3 * circles.tol[:, None]
    tied = (has & (np.abs(off) <= tol)).any(axis=1)
    violated = bool((has & ~(off >= -tol)).any())
    return far, tied, violated


def _local_gabriel(
    sites: np.ndarray,
    tri: Delaunay,
    edges: np.ndarray,
    simplex: np.ndarray,
    slot: np.ndarray,
    far: np.ndarray,
    tied: np.ndarray,
) -> np.ndarray:
    """Per-edge verdicts of the local Gabriel lemma (module docstring).

    ``edges, simplex, slot`` come from
    :func:`repro.core.gabriel.site_edge_slots`, ``far, tied`` from
    :func:`_neighbour_ties`.  An edge whose opposite site (in either
    simplex next to it) satisfies the oracle's predicate
    ``(s - a) . (s - b) < 0`` on the raw ``sites`` is dead; otherwise
    it is alive unless a simplex next to it is tied, and then
    unsettled.  Frame vertices and missing neighbours never block.
    """
    n = len(sites)
    sx, sy = sites[:, 0], sites[:, 1]
    a, b = edges[:, 0], edges[:, 1]
    ax, ay, bx, by = sx[a], sy[a], sx[b], sy[b]
    nbr = tri.neighbors[simplex, slot]
    own_far = tri.simplices[simplex, slot]
    nbr_far = far[simplex, slot]
    blocked = np.zeros(len(edges), dtype=bool)
    for v, real in (
        (own_far, own_far < n),
        (nbr_far, (nbr >= 0) & (nbr_far < n)),
    ):
        # A stand-in endpoint gives t == 0, which never blocks.
        v = np.where(real, v, a)
        vx, vy = sx[v], sy[v]
        t = (vx - ax) * (vx - bx) + (vy - ay) * (vy - by)
        blocked |= t < 0.0
    calm = ~tied[simplex] & ~((nbr >= 0) & tied[nbr])
    verdict = np.full(len(edges), UNSETTLED, dtype=np.int8)
    verdict[calm] = SETTLED_ALIVE
    verdict[blocked] = SETTLED_DEAD
    return verdict


def _cocircular_site_pairs(
    tri: Delaunay, circles: TriangleCircles, tied: np.ndarray
) -> np.ndarray:
    """Extra site pairs hidden inside cocircular Delaunay faces.

    Vectorized version of
    :func:`repro.core.gabriel._cocircular_cluster_pairs`: when four or
    more sites lie on one empty circle (exactly, or within Qhull's
    resolution), the triangulation keeps only some of their pairwise
    diametral edges, so each such cluster must be recovered from
    triangle circumcircles.  A cocircular face is carved into two or
    more *adjacent* simplices sharing one circumcircle, so only
    simplices whose circumcircle passes by a neighbour's far vertex
    (``tied`` from :func:`_neighbour_ties`: within 1000 times the
    on-circle tolerance — false flags are filtered by the on-circle
    test, and false candidate pairs by verification) are probed with a
    ball query and per-cluster Python.  Next to a near-coincident pair
    of sites the neighbour's own circle is ill-conditioned, and only
    the vertex shows the tie.  On general-position data nothing is
    flagged and the pass costs nothing beyond ``tied``.  Circumcircles
    live in the triangulation's centred coordinates; clusters hold
    sites only, and small simplices are left to the unresolved-site
    route.
    """
    sites = framed_sites(tri)
    ux, uy, radius = circles.ux, circles.uy, circles.radius
    flagged = (
        tied
        & np.isfinite(ux)
        & np.isfinite(uy)
        & ~circles.small
        & (radius <= recoverable_radius_bound(sites))
    )
    probe = np.nonzero(flagged)[0]
    if probe.size == 0:
        return np.empty((0, 2), dtype=np.int64)

    extra = recover_cocircular_pairs(
        sites,
        cKDTree(sites),
        ux[probe],
        uy[probe],
        radius[probe],
        circles.tol[probe],
    )
    if not extra:
        return np.empty((0, 2), dtype=np.int64)
    return np.array(sorted(extra), dtype=np.int64)


def verify_rings_batch(
    px: np.ndarray,
    py: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
    union_tree: cKDTree,
    ux: np.ndarray,
    uy: np.ndarray,
    blocker_alive: np.ndarray | None = None,
) -> np.ndarray:
    """Batch ring-emptiness verification of candidate pairs.

    For each candidate ``<p, q>`` (coordinate arrays of shape ``(M,)``)
    the ring — the circle with diameter ``pq`` — must contain no point
    of the union dataset (``union_tree`` over coordinates ``ux, uy``)
    strictly inside.  The test is the exact oracle predicate
    ``(s - p) . (s - q) < 0``, under which the endpoints themselves (and
    coincident duplicates) evaluate to exactly zero and never block.

    A blocker lies strictly inside the circle around the midpoint ``m``
    with radius ``r = |pq| / 2``, so it is nearer to ``m`` than any
    point on the ring.  The kernel therefore works nearest-first:

    1. One batched KD-tree query returns the :data:`_NEAR_K` union
       points nearest each midpoint.  Those within the inflated ball
       radius (inflated so no true blocker can round out) go through
       the predicate; a hit kills the row.
    2. A row survives without further work when its window reaches
       beyond the ball (every point inside the ball was in the window,
       and none blocks), when the window is the whole union, or when
       ``r == 0`` (a ring of coincident ``p, q`` cannot be blocked).
    3. Only the rows whose whole window lies inside the ball and holds
       no blocker fall back to a ball query over all union points
       inside their ring plus the same predicate.  The number of these
       rows is the ``ring_fallback`` counter of the enclosing span.

    So the work and memory per row are bounded by the window, not by
    how many points the ring holds, and the survivor mask is the one a
    full ball query gives.

    ``blocker_alive`` (a boolean ``(len(ux),)`` mask, when given) drops
    dead tree rows before the predicate — the seam that lets the dynamic
    backend verify against a *stale* KD-tree carrying tombstoned points
    without rebuilding it: a dead row can never block, and survivors are
    exactly those of a compacted tree because every live blocker applies
    the identical IEEE predicate.  Dead rows still fill the window, so a
    window of dead rows inside the ball takes the fallback.

    Returns the boolean ``(M,)`` survivor mask.
    """
    m = len(px)
    alive = np.ones(m, dtype=bool)
    if m == 0 or union_tree.n == 0:
        return alive
    mx = 0.5 * (px + qx)
    my = 0.5 * (py + qy)
    r = 0.5 * np.hypot(px - qx, py - qy)
    # The absolute inflation term scales with the midpoint magnitude:
    # midpoint rounding is ~ulp(|m|), so a fixed absolute term would be
    # outrun at large coordinates with tiny rings.
    radii = r * (1.0 + _BALL_INFLATION) + 1e-12 * (
        np.abs(mx) + np.abs(my) + 1.0
    )
    k = min(_NEAR_K, union_tree.n)
    dist, near = union_tree.query(np.column_stack((mx, my)), k=k)
    dist = dist.reshape(m, k)
    near = near.reshape(m, k)
    inside = dist <= radii[:, None]
    tested = inside if blocker_alive is None else inside & blocker_alive[near]
    sx = ux[near]
    sy = uy[near]
    t = (sx - px[:, None]) * (sx - qx[:, None]) + (sy - py[:, None]) * (
        sy - qy[:, None]
    )
    alive[(tested & (t < 0.0)).any(axis=1)] = False
    if k == union_tree.n:
        return alive
    rows = np.flatnonzero(alive & inside[:, -1] & (r > 0.0))
    if rows.size:
        add_counter("ring_fallback", int(rows.size))
        alive[rows] = _ball_verify(
            px[rows], py[rows], qx[rows], qy[rows],
            np.column_stack((mx[rows], my[rows])), radii[rows],
            union_tree, ux, uy, blocker_alive,
        )
    return alive


def _ball_verify(px, py, qx, qy, mids, radii, union_tree, ux, uy, blocker_alive):
    """The exact fallback of :func:`verify_rings_batch`: the predicate
    over every union point inside each row's ball."""
    m = len(px)
    alive = np.ones(m, dtype=bool)
    neighbor_lists = union_tree.query_ball_point(
        mids, radii, return_sorted=False
    )
    flat, counts = _flatten_ball_lists(neighbor_lists, m)
    rows = np.repeat(np.arange(m), counts)
    if blocker_alive is not None:
        keep = blocker_alive[flat]
        flat = flat[keep]
        rows = rows[keep]
    sx = ux[flat]
    sy = uy[flat]
    t = (sx - px[rows]) * (sx - qx[rows]) + (sy - py[rows]) * (sy - qy[rows])
    alive[rows[t < 0.0]] = False
    return alive


# ----------------------------------------------------------------------
# convex cell intersection (the common influence join's verifier)
# ----------------------------------------------------------------------

#: Closed-intersection slack of :func:`cells_intersect`: the default
#: ``tol`` of the scalar
#: :func:`repro.geometry.polygon.convex_polygons_intersect`, the one
#: the CIJ oracle uses.
_SAT_TOL = 1e-9

#: Elements per ``(items, edges, vertices)`` temporary of the batched
#: SAT test (:func:`_batches`, :func:`_edge_slices`): it bounds the
#: working set whatever the candidate count or cell size.  At 256 KB a
#: temporary stays in cache; larger chunks ran slower.
_SAT_CELLS = 1 << 15


class CellPack(NamedTuple):
    """Convex cells packed for the batched SAT test.

    The vertices of all cells sit end to end in flat columns, cell
    ``i``'s at ``start[i] : start[i] + count[i]``, followed by one
    spare entry, so that the row of an empty cell (``start[i]``, where
    its first vertex would be) is always in range.  Entry ``j``
    also describes edge ``j``, from vertex ``j`` to the next vertex of
    its cell (the last wraps to the cell's first).
    """

    #: Vertex coordinates.
    x: np.ndarray
    y: np.ndarray
    #: Unit outward normal of each edge; 0 on a zero-length edge.
    nx: np.ndarray
    ny: np.ndarray
    #: The cell's own largest projection on the edge's normal plus
    #: :data:`_SAT_TOL`; ``+inf`` on a zero-length edge, which
    #: therefore never separates.
    thr: np.ndarray
    #: Per cell: first entry and vertex count (0: an empty cell, which
    #: intersects nothing).
    start: np.ndarray
    count: np.ndarray

    def rows(self, cells: np.ndarray, width: int) -> np.ndarray:
        """``(len(cells), width)`` entries of each cell's vertices (and
        edges), padded by repeating its entry 0: a repeated vertex
        leaves every max and min projection unchanged, and a repeated
        edge repeats its own test."""
        col = np.arange(width)
        count = self.count[cells, None]
        return self.start[cells, None] + np.where(col < count, col, 0)

    def boxes(self) -> np.ndarray:
        """``(n, 4)`` closed bounding boxes ``(xmin, ymin, xmax,
        ymax)``, the values :func:`repro.geometry.polygon.polygon_bbox`
        returns (rows of empty cells are zero)."""
        boxes = np.zeros((len(self.count), 4))
        cells = np.flatnonzero(self.count)
        if cells.size:
            at = self.start[cells]
            x, y = self.x[:-1], self.y[:-1]
            boxes[cells] = np.column_stack(
                (
                    np.minimum.reduceat(x, at),
                    np.minimum.reduceat(y, at),
                    np.maximum.reduceat(x, at),
                    np.maximum.reduceat(y, at),
                )
            )
        return boxes


def pack_cells(cells) -> CellPack:
    """Pack convex polygons (lists of ``(x, y)`` vertices, CCW) for
    :func:`cells_intersect`.

    Everything that depends on one cell alone is computed here, once
    per cell: the edge normals and each edge's threshold ``max_a +
    tol`` (``tol`` is :data:`_SAT_TOL`).  Each term is the IEEE
    expression of the scalar
    :func:`repro.geometry.polygon._separating_axis`: edge norms come
    from :func:`math.hypot` (``np.hypot`` differs from it in the last
    ulp on a small share of inputs), normals are ``(ey / norm, -ex /
    norm)``, and projections are ``(vx - x1) * nx + (vy - y1) * ny``.
    """
    count = np.fromiter(map(len, cells), np.int64, count=len(cells))
    start = np.cumsum(count) - count
    total = int(count.sum())
    xy = np.fromiter(
        chain.from_iterable(chain.from_iterable(cells)),
        np.float64,
        count=2 * total,
    ).reshape(total, 2)
    x = np.append(xy[:, 0], 0.0)
    y = np.append(xy[:, 1], 0.0)
    nxt = np.arange(1, total + 1)
    filled = count > 0
    nxt[(start + count - 1)[filled]] = start[filled]
    ex = x[nxt] - x[:-1]
    ey = y[nxt] - y[:-1]
    norm = np.fromiter(
        map(math.hypot, ex.tolist(), ey.tolist()), np.float64, count=total
    )
    valid = norm != 0.0
    safe = np.where(valid, norm, 1.0)
    nx = np.append(np.where(valid, ey / safe, 0.0), 0.0)
    ny = np.append(np.where(valid, -ex / safe, 0.0), 0.0)
    thr = np.full(total + 1, np.inf)
    pack = CellPack(x, y, nx, ny, thr, start, count)
    for group, width in _batches(count):
        own = pack.rows(group, width)
        for edges in _edge_slices(len(group), width, width):
            e = own[:, edges]
            proj = _projections(x[e], y[e], nx[e], ny[e], x[own], y[own])
            thr[e] = proj.max(axis=2) + _SAT_TOL
    thr[:-1][~valid] = np.inf
    return pack


def _batches(width_of: np.ndarray):
    """Batches ``(items, width)`` of the batched SAT test.

    Items (cells or cell pairs) are grouped by ``width_of``, the
    largest vertex count they involve, so a few many-sided cells do
    not widen every row; a batch of width ``w`` holds at most
    ``_SAT_CELLS // w²`` items (at least one).  Items of width 0 (empty
    cells) are skipped.
    """
    order = np.argsort(width_of, kind="stable")
    key = width_of[order]
    cuts = np.flatnonzero(np.diff(key)) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, key.size]):
        width = int(key[lo]) if hi > lo else 0
        if width == 0:
            continue
        step = max(1, _SAT_CELLS // (width * width))
        for first in range(lo, hi, step):
            yield order[first : min(first + step, hi)], width


def _edge_slices(rows: int, edges: int, vertices: int) -> list[slice]:
    """Slices of the edge axis that keep each ``(rows, edges,
    vertices)`` temporary within :data:`_SAT_CELLS` elements; one slice
    unless a cell is too wide for a whole batch row."""
    span = max(1, _SAT_CELLS // (rows * vertices))
    return [slice(e0, e0 + span) for e0 in range(0, edges, span)]


def _projections(x1, y1, nx, ny, vx, vy) -> np.ndarray:
    """``(m, edges, vertices)`` projections ``(vx - x1) * nx + (vy -
    y1) * ny`` of each row's vertices ``vx, vy`` on each edge normal of
    the same row, measured from the edge's start ``x1, y1``."""
    dx = vx[:, None, :] - x1[:, :, None]
    dx *= nx[:, :, None]
    dy = vy[:, None, :] - y1[:, :, None]
    dy *= ny[:, :, None]
    dx += dy
    return dx


def _separates(a: CellPack, rows_a, b: CellPack, rows_b) -> np.ndarray:
    """True per pair when some edge of ``a``'s cell separates it from
    ``b``'s: the smallest projection of ``b`` exceeds ``a``'s
    threshold on that edge."""
    m, width_b = rows_b.shape
    bx, by = b.x[rows_b], b.y[rows_b]
    out = np.zeros(m, dtype=bool)
    for edges in _edge_slices(m, rows_a.shape[1], width_b):
        e = rows_a[:, edges]
        proj = _projections(a.x[e], a.y[e], a.nx[e], a.ny[e], bx, by)
        out |= (proj.min(axis=2) > a.thr[e]).any(axis=1)
    return out


def cells_intersect(
    a: CellPack, ia: np.ndarray, b: CellPack, ib: np.ndarray
) -> np.ndarray:
    """Closed intersection of cell pairs ``(a[ia[j]], b[ib[j]])`` by
    the separating-axis test, batched.

    Decides each pair exactly as the scalar
    :func:`repro.geometry.polygon.convex_polygons_intersect` does, bit
    for bit: an empty cell intersects nothing, and otherwise the pair
    intersects unless some edge of either cell is a separating axis.
    Every projection and threshold is the same IEEE expression on the
    same floats (:func:`pack_cells`), padding leaves each max and min
    unchanged, and zero-length edges never separate, as the scalar
    loop skips them.  Pairs go in the bounded batches of
    :func:`_batches`; each side's rows are cut to that side's largest
    vertex count in the batch.  Returns the boolean ``(M,)`` mask.
    """
    separated = np.zeros(len(ia), dtype=bool)
    for pairs, _ in _batches(np.maximum(a.count[ia], b.count[ib])):
        ca, cb = ia[pairs], ib[pairs]
        # An empty cell's row still needs one column; the final mask
        # decides its pairs.
        rows_a = a.rows(ca, max(int(a.count[ca].max()), 1))
        rows_b = b.rows(cb, max(int(b.count[cb].max()), 1))
        separated[pairs] = _separates(a, rows_a, b, rows_b) | _separates(
            b, rows_b, a, rows_a
        )
    return (a.count[ia] > 0) & (b.count[ib] > 0) & ~separated


def canonical_pair_order(p_idx: np.ndarray, q_idx: np.ndarray) -> np.ndarray:
    """Sort permutation of the canonical result-pair order.

    The canonical order of an index pair set is ascending ``q_index``
    with ties broken by ascending ``p_index``.  Both the serial pipeline
    and the sharded parallel engine (:mod:`repro.parallel`) emit their
    results in this order, which is what makes parallel output
    byte-identical across worker counts: shard boundaries change which
    worker finds a pair, never where the pair sorts.

    Pairs already in that order (the Delaunay source emits them so)
    get the identity permutation after one linear check, no sort.
    """
    dq = np.diff(q_idx)
    if ((dq > 0) | ((dq == 0) & (np.diff(p_idx) >= 0))).all():
        return np.arange(len(q_idx))
    return np.lexsort((p_idx, q_idx))


def rcj_pair_indices(
    parr: PointArray,
    qarr: PointArray,
    exclude_same_oid: bool = False,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The full vectorized RCJ over columnar inputs.

    Runs the bulk RCJ pipeline
    (:func:`repro.engine.families.rcj_pipeline`: Delaunay candidates
    -> ring verification -> canonical collect) in-process.  Returns
    ``(p_index, q_index, candidate_count)``: aligned index arrays of
    the result pairs into ``parr``/``qarr`` in canonical order
    (:func:`canonical_pair_order`), plus the number of candidate pairs
    that entered verification (the engine's ``candidate_count``
    accounting figure).
    """
    # Imported lazily: the operator algebra builds on these kernels.
    from repro.engine.families import rcj_pipeline
    from repro.engine.operators import JoinContext

    ctx = JoinContext(parr, qarr)
    result = rcj_pipeline(exclude_same_oid=exclude_same_oid).run(ctx)
    return result.p_idx, result.q_idx, int(ctx.counters.get("candidates", 0))
