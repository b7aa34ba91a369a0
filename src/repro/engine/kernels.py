"""Vectorized batch kernels for the RCJ hot path.

The pointwise algorithms (:mod:`repro.core.inj`, :mod:`repro.core.bij`)
process one probe point — or one leaf — at a time through Python
objects.  The kernels here process whole pointsets through numpy
arrays:

- :func:`knn_candidate_blocks` — candidate generation: the bichromatic
  edges of one Delaunay triangulation of the distinct sites of
  ``P ∪ Q`` (the Gabriel argument below), plus an exact per-probe scan
  for what Qhull cannot settle.
- :func:`verify_rings_batch` — batch ring-emptiness verification: the
  per-circle loop of :mod:`repro.core.verification` is replaced by a
  nearest-blocker pass.  One KD-tree query fetches the few union points
  nearest every candidate midpoint, and one vectorized evaluation of
  the exact dot predicate over them settles almost every ring: a
  blocker lies nearer the midpoint than the ring's own endpoints.  Only
  rings whose whole window lies inside the ring without blocking (ties
  on the boundary, dead rows of a stale tree) fall back to a ball query
  over every point inside them.  Work and memory per ring are therefore
  bounded by the window, not by how many points a wide ring holds.

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
the oracle's test.  Together the two halves make the array engine
return result sets identical to the pointwise algorithms; the
cross-algorithm equivalence suite and the differential fuzz suite pin
this.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from repro.core.gabriel import (
    TriangleCircles,
    checked_delaunay,
    framed_sites,
    recover_cocircular_pairs,
    recoverable_radius_bound,
    site_edges,
    triangle_circles,
    unresolved_sites,
)
from repro.engine.arrays import PointArray
from repro.obs.trace import add_counter, stage_timer

#: Neighbour window of the exact route's per-probe scan.
DEFAULT_K0 = 64

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
    """Candidate generation: ``(q_index, p_index)`` candidate pair arrays.

    The returned pair set is a superset of every true RCJ pair ``<p, q>``
    with ``p`` from ``parr`` and ``q`` from ``qarr``; final ring
    verification against the full union is :func:`verify_rings_batch`'s
    job.  Duplicates are removed and the pairs sorted by ``q_index``,
    then ``p_index``.

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
    sent to the exact scan).
    """
    n_p, n_q = len(parr), len(qarr)
    if n_p == 0 or n_q == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64))
    r_floor = 1e-12 * _coord_scale(parr.x, parr.y, qarr.x, qarr.y)
    with stage_timer("candidate"):
        found = _delaunay_candidates(parr, qarr)
        if found is None:  # refused: every probe takes the exact scan
            none = np.empty(0, np.int64)
            found = (none, none, none, np.arange(n_q, dtype=np.int64))
        q_idx, p_idx, unresolved_p, unresolved_q = found
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
        key = np.unique(q_idx * np.int64(n_p) + p_idx)
    return key // n_p, key % n_p


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
    p_flat: np.ndarray,
    p_off: np.ndarray,
    q_flat: np.ndarray,
    q_off: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand site pairs into all (P member, Q member) index pairs.

    ``p_flat``/``q_flat`` hold member indices grouped by site (CSR
    layout with offset arrays ``p_off``/``q_off``).  For every site pair
    ``(a, b)`` the full cross product of ``a``'s P members with ``b``'s
    Q members is emitted, fully vectorized.
    """
    na = p_off[a_sites + 1] - p_off[a_sites]
    nb = q_off[b_sites + 1] - q_off[b_sites]
    sizes = na * nb
    keep = sizes > 0
    a_sites, b_sites = a_sites[keep], b_sites[keep]
    na, nb, sizes = na[keep], nb[keep], sizes[keep]
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    edge = np.repeat(np.arange(sizes.size), sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    local = np.arange(total) - offsets[edge]
    p_idx = p_flat[p_off[a_sites[edge]] + local // nb[edge]]
    q_idx = q_flat[q_off[b_sites[edge]] + local % nb[edge]]
    return p_idx, q_idx


def _delaunay_candidates(
    parr: PointArray, qarr: PointArray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Candidate superset from one Delaunay triangulation of the
    distinct sites of ``parr ∪ qarr``.

    A true pair's ring is empty over the union, so the pair is a
    Gabriel edge of its sites and (up to cocircular degeneracies,
    recovered from equal-circumcircle clusters exactly as
    :func:`repro.core.gabriel.gabriel_rcj` does) a Delaunay edge of
    them.  Coincident P/Q sites, whose radius-zero ring is trivially
    empty, are emitted directly.

    Returns ``(q_index, p_index, unresolved_p, unresolved_q)``: the
    candidate pairs the triangulation settles, plus the ``parr`` and
    ``qarr`` rows at the sites it cannot settle
    (:func:`repro.core.gabriel.unresolved_sites`), whose pairs the
    caller must find another way.  Returns ``None`` when the
    triangulation cannot be trusted
    (:func:`repro.core.gabriel.checked_delaunay`).
    """
    n_p = len(parr)
    coords = np.concatenate((parr.coords(), qarr.coords()))
    sites, member_site = np.unique(coords, axis=0, return_inverse=True)
    member_site = member_site.ravel()
    n_sites = len(sites)
    tri = checked_delaunay(sites)
    if tri is None:
        return None
    add_counter("sites", n_sites)

    edges = site_edges(tri)
    circles = triangle_circles(tri)
    extra = _cocircular_site_pairs(tri, circles)
    if len(extra):
        edges = np.concatenate((edges, extra))

    # CSR membership: which P rows / probe rows live at each site.
    p_flat = np.argsort(member_site[:n_p], kind="stable").astype(np.int64)
    p_off = np.zeros(n_sites + 1, dtype=np.int64)
    np.cumsum(np.bincount(member_site[:n_p], minlength=n_sites), out=p_off[1:])
    q_flat = np.argsort(member_site[n_p:], kind="stable").astype(np.int64)
    q_off = np.zeros(n_sites + 1, dtype=np.int64)
    np.cumsum(np.bincount(member_site[n_p:], minlength=n_sites), out=q_off[1:])

    out_p: list[np.ndarray] = []
    out_q: list[np.ndarray] = []
    for a, b in (
        (edges[:, 0], edges[:, 1]),
        (edges[:, 1], edges[:, 0]),
        # Coincident P/Q sites: the degenerate self-"edge".
        (np.arange(n_sites, dtype=np.int64),) * 2,
    ):
        pi, qi = _cross_emit(a, b, p_flat, p_off, q_flat, q_off)
        out_p.append(pi)
        out_q.append(qi)

    unresolved = unresolved_sites(tri, circles.small)[member_site]
    return (
        np.concatenate(out_q),
        np.concatenate(out_p),
        np.flatnonzero(unresolved[:n_p]),
        np.flatnonzero(unresolved[n_p:]),
    )


def _cocircular_site_pairs(
    tri: Delaunay, circles: TriangleCircles
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
    (within 1000 times the on-circle tolerance — false flags are
    filtered by the on-circle test, and false candidate pairs by
    verification) are probed with a ball query and per-cluster Python.
    On
    general-position data nothing is flagged and the whole pass is
    three distance tests per simplex.  Circumcircles live in the
    triangulation's centred coordinates; clusters hold sites only, and
    small simplices are left to the unresolved-site route.
    """
    sites = framed_sites(tri)
    ux, uy, radius = circles.ux, circles.uy, circles.radius
    finite = (
        np.isfinite(ux)
        & np.isfinite(uy)
        & ~circles.small
        & (radius <= recoverable_radius_bound(sites))
    )

    # Flag simplices whose circle passes by a Delaunay neighbour's far
    # vertex.  A neighbour sharing the circle has its far vertex on it;
    # next to a near-coincident pair of sites the neighbour's own
    # circle is ill-conditioned, and only the vertex shows the tie.
    flag_tol = 1e3 * circles.tol
    flagged = np.zeros(len(radius), dtype=bool)
    simplices, neighbors, points = tri.simplices, tri.neighbors, tri.points
    vertex_sum = simplices.sum(axis=1)
    for slot in range(3):
        j = neighbors[:, slot]
        j_safe = np.maximum(j, 0)
        # The far vertex of j: its vertex sum minus the shared edge's
        # (any vertex where there is no neighbour).
        far = np.where(
            j >= 0, vertex_sum[j_safe] - vertex_sum + simplices[:, slot], 0
        )
        with np.errstate(invalid="ignore"):
            off = np.hypot(points[far, 0] - ux, points[far, 1] - uy) - radius
        flagged |= (j >= 0) & finite & (np.abs(off) <= flag_tol)
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


def canonical_pair_order(p_idx: np.ndarray, q_idx: np.ndarray) -> np.ndarray:
    """Sort permutation of the canonical result-pair order.

    The canonical order of an index pair set is ascending ``q_index``
    with ties broken by ascending ``p_index``.  Both the serial pipeline
    and the sharded parallel engine (:mod:`repro.parallel`) emit their
    results in this order, which is what makes parallel output
    byte-identical across worker counts: shard boundaries change which
    worker finds a pair, never where the pair sorts.
    """
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
