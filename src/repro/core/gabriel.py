"""Main-memory RCJ via the Gabriel-graph equivalence.

The RCJ condition — the circle with diameter ``pq`` contains no other
point of ``P ∪ Q`` strictly inside — is exactly the *Gabriel graph*
edge condition over ``P ∪ Q``.  Since every Gabriel edge is a Delaunay
edge (for points in general position), the RCJ result can be computed
in main memory by:

1. building the Delaunay triangulation of the distinct coordinates of
   ``P ∪ Q`` (scipy/Qhull, on centred coordinates inside a far
   triangular frame; see :func:`checked_delaunay`) and keeping its
   edges between sites, each read once off ``tri.neighbors``
   (:func:`site_edges`);
2. keeping the Delaunay edges whose diameter circle is empty — blocker
   candidates come from a slightly inflated KD-tree ball query and are
   confirmed with the exact dot-product predicate shared with the
   oracle (see :mod:`repro.geometry.ring`), on raw coordinates;
3. emitting the bichromatic pairs of each surviving edge, plus the
   pairs of coincident ``P``/``Q`` points (their circle has radius zero
   and is trivially empty).

The frame is three vertices around the sites, so no site lies on the
triangulated hull.  Clamped data piles long collinear runs onto its
bounding box; on the hull, each run lifts to a vertical coplanar facet
of the paraboloid and costs Qhull several times the rest of the
triangulation.  Frame vertices stay far enough out that they never
block a site pair's ring, and they never reach an output.

Sites the triangulation cannot settle — those Qhull leaves out of every
simplex (near-coincident sites) and the vertices of simplices below its
in-circle resolution (:data:`QHULL_ROUND`) — get every other site as a
partner edge, cut by the exact predicate against their nearest sites
(:func:`_unresolved_site_pairs`).

This is not one of the paper's algorithms — it serves as an independent
comparator for correctness testing and as a main-memory performance
ablation (it has no I/O model and assumes the data fits in RAM).
Inputs Qhull cannot triangulate faithfully (fewer than four distinct
locations, collinear or near-flat sets; see :func:`checked_delaunay`)
leave every site unresolved: each gets the pruned partner edges of
:func:`_unresolved_site_pairs`, verified like the triangulation's own.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from repro.core.pairs import RCJPair
from repro.geometry.point import Point


def _coincident_pairs(
    groups: dict[tuple[float, float], tuple[list[Point], list[Point]]],
    exclude_same_oid: bool,
) -> list[RCJPair]:
    """Pairs of P/Q points sharing a coordinate (radius-zero circles)."""
    out: list[RCJPair] = []
    for p_members, q_members in groups.values():
        for p in p_members:
            for q in q_members:
                if exclude_same_oid and p.oid == q.oid:
                    continue
                out.append(RCJPair(p, q))
    return out


def recoverable_radius_bound(sites: np.ndarray) -> float:
    """Largest circumradius a cocircular cluster can possibly have.

    A missed edge's circle is the diametral ring of a site pair, so its
    radius is at most half the site bounding-box diagonal, and a circle
    flagged beside it agrees to 1e-6 relative: the full diagonal bounds
    both.  Simplices with larger (or nan/inf) circumradii are slivers
    that cannot hide a missed edge; admitting them would make the
    radius-scaled on-circle tolerance swallow whole near-flat chains
    into one giant "cluster".
    """
    spans = sites.max(axis=0) - sites.min(axis=0)
    return math.hypot(spans[0], spans[1])


#: Relative width (smallest over largest singular value of the centred
#: sites) at or below which Qhull's triangulation is not trusted: it
#: accepts such near-flat sets but omits chain edges.
FLAT_WIDTH = 1e-9


#: Frame vertices :func:`checked_delaunay` triangulates after the sites.
FRAME_VERTICES = 3


def _frame(centred: np.ndarray) -> np.ndarray:
    """Corners of an equilateral triangle far around ``centred``.

    With ``c`` the centre of the sites' bounding box and ``h`` its
    half-diagonal, the triangle's circumradius is ``4h`` about ``c``
    and its inradius ``2h``, so every site lies strictly inside it.
    """
    lo = centred.min(axis=0)
    hi = centred.max(axis=0)
    h = 0.5 * math.hypot(hi[0] - lo[0], hi[1] - lo[1])
    angles = np.array([0.5, 0.5 + 2.0 / 3.0, 0.5 + 4.0 / 3.0]) * np.pi
    return 0.5 * (lo + hi) + 4.0 * h * np.column_stack(
        (np.cos(angles), np.sin(angles))
    )


def checked_delaunay(sites: np.ndarray) -> Delaunay | None:
    """Qhull's triangulation of the distinct ``sites`` inside a far
    frame, or ``None`` where it cannot be trusted to hold every Gabriel
    edge.

    Qhull triangulates the *centred* sites ``sites - sites.mean(axis=0)``
    followed by the :data:`FRAME_VERTICES` corners of a frame around
    them (the triangulation's ``points``; site indices are unchanged
    and frame indices come last, see :func:`framed_sites`).  Far from
    the origin, raw coordinates spend their low bits on the offset and
    Qhull drops true Gabriel edges.  Circumcircle work must use
    ``tri.points``; exact predicates stay on the raw sites.

    The frame (:func:`_frame`) is an equilateral triangle of
    circumradius ``4h`` about the centre ``c`` of the sites' bounding
    box, ``h`` being its half-diagonal.  Its inradius ``2h`` exceeds
    ``h``, so every site lies strictly inside, and collinear runs on
    the sites' bounding box (clamped data) are no longer on the hull,
    where each lifts to a vertical coplanar facet that Qhull grinds on.
    Each frame vertex is ``4h > 2h`` from ``c``, while every diametral
    disk of two sites lies within ``2h`` of ``c``: no frame vertex can
    block a site pair's ring.  A ring empty of the sites is therefore
    empty of the framed set, and its pair is still a Delaunay edge
    there, up to cocircular ties among the sites alone (a tie's circle
    is the ring itself).  A square frame would not do: its four
    corners are cocircular, a degeneracy of its own, and Qhull runs
    slower on it than on the three-vertex frame.

    Refused, decided on the sites alone: fewer than four sites and
    near-flat sets (relative width at most :data:`FLAT_WIDTH`, i.e.
    scatter eigenvalues ``λmin ≤ 1e-18·λmax``).  Also refused: a
    ``QhullError``, and triangulations whose simplices index past the
    framed points (the point at infinity of Qhull's ``Qz`` option
    leaking through on degenerate input).  Callers fall back to an
    exact route: every site unresolved in :func:`gabriel_rcj`, the
    exact scan of the array engine (:mod:`repro.engine.kernels`).
    """
    n = len(sites)
    if n < 4:
        return None
    centred = sites - sites.mean(axis=0)
    width = np.linalg.svd(centred, compute_uv=False)
    if not width[1] > FLAT_WIDTH * width[0]:
        return None
    try:
        tri = Delaunay(np.concatenate((centred, _frame(centred))))
    except QhullError:
        return None
    if tri.simplices.size and int(tri.simplices.max()) >= n + FRAME_VERTICES:
        return None
    return tri


def framed_sites(tri: Delaunay) -> np.ndarray:
    """The centred sites of a :func:`checked_delaunay` triangulation,
    without its frame."""
    return tri.points[:-FRAME_VERTICES]


def site_edges(tri: Delaunay) -> np.ndarray:
    """The triangulation's distinct edges between sites, as an
    ``(m, 2)`` array of ``(low, high)`` site indices in no particular
    order; edges touching a frame vertex are dropped.

    The edges are read off ``tri.neighbors`` without a dedupe: slot
    ``k`` of simplex ``i`` emits the edge opposite vertex ``k`` iff
    ``neighbors[i, k] < i``.  An inner edge is shared by two simplices
    and only the higher-numbered one emits it; a hull slot holds
    ``-1``, so its simplex always does.  Each edge appears exactly
    once.
    """
    return site_edge_slots(tri)[0]


def site_edge_slots(
    tri: Delaunay,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`site_edges` with the slot that emitted each edge:
    ``(edges, simplex, slot)``.

    Edge ``e`` is the side of simplex ``simplex[e]`` opposite its
    vertex ``tri.simplices[simplex[e], slot[e]]``, shared with the
    neighbour ``tri.neighbors[simplex[e], slot[e]]`` (``-1`` on the
    hull): the two simplices next to the edge and its two opposite
    vertices, the local Gabriel test's inputs
    (:mod:`repro.engine.kernels`).
    """
    n = len(framed_sites(tri))
    simp = tri.simplices
    own = tri.neighbors < np.arange(len(simp))[:, None]
    edges, simplex, slot = [], [], []
    for k in range(3):
        rows = np.flatnonzero(own[:, k])
        a = simp[rows, (k + 1) % 3]
        b = simp[rows, (k + 2) % 3]
        keep = np.maximum(a, b) < n
        a, b, rows = a[keep], b[keep], rows[keep]
        edges.append(np.column_stack((np.minimum(a, b), np.maximum(a, b))))
        simplex.append(rows)
        slot.append(np.full(rows.size, k, dtype=np.int64))
    return (
        np.concatenate(edges).astype(np.int64),
        np.concatenate(simplex),
        np.concatenate(slot),
    )


def circumcircles(
    points: np.ndarray, simplices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Circumcentres ``(ux, uy)`` and radii of the triangles
    ``simplices`` over ``points``; degenerate triangles get nan/inf.

    Each circle is solved relative to its triangle's first vertex, so
    the rounding error scales with the triangle's size, not with its
    distance from the origin (the absolute-coordinate formula loses
    about ``ulp(E²)/s`` for a cell of spacing ``s`` at distance ``E``).
    """
    a = points[simplices[:, 0]]
    b = points[simplices[:, 1]] - a
    c = points[simplices[:, 2]] - a
    d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    sq_b = b[:, 0] ** 2 + b[:, 1] ** 2
    sq_c = c[:, 0] ** 2 + c[:, 1] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = (c[:, 1] * sq_b - b[:, 1] * sq_c) / d
        uy = (b[:, 0] * sq_c - c[:, 0] * sq_b) / d
    return a[:, 0] + ux, a[:, 1] + uy, np.hypot(ux, uy)


#: Qhull's in-circle resolution, relative to the squared extent of the
#: triangulated points: a site within ``QHULL_ROUND · E² / r`` of a
#: circle of radius ``r`` may fall on either side of it in Qhull's
#: arithmetic (``E`` is the largest norm of ``tri.points``, frame
#: included; the lifted coordinate carries ``E²``).  About 4500 ulps:
#: the worst miss measured on cocircular sets next to far sites
#: needed 11.
QHULL_ROUND = 1e-12


class TriangleCircles(NamedTuple):
    """Circumcircles of a triangulation's simplices (centred
    coordinates)."""

    ux: np.ndarray
    uy: np.ndarray
    radius: np.ndarray
    #: How far a site may sit off the circle and still be cocircular
    #: with it as far as the computation can tell.
    tol: np.ndarray
    #: Simplices below Qhull's resolution (see :func:`triangle_circles`).
    small: np.ndarray


def triangle_circles(tri: Delaunay) -> TriangleCircles:
    """Circumcircles of ``tri``'s simplices with their on-circle
    tolerances.

    The tolerance sums the circle's own rounding (relative to its radius
    and to its centre's magnitude) and Qhull's in-circle resolution
    (:data:`QHULL_ROUND`), whose ``E`` spans every triangulated point:
    the frame enters Qhull's arithmetic too.  Where the resolution term
    exceeds an eighth of the radius the simplex is *small*: a
    cocircular cluster there cannot be told from its neighbours, so its
    vertices take an exact route instead (:func:`unresolved_sites`),
    which also keeps the cluster search from swallowing whole
    neighbourhoods.
    """
    points = tri.points
    ux, uy, radius = circumcircles(points, tri.simplices)
    e2 = float(np.einsum("ij,ij->i", points, points).max())
    with np.errstate(divide="ignore", invalid="ignore"):
        qhull = QHULL_ROUND * e2 / radius
    tol = 1e-9 * (radius + 1.0) + 1e-12 * (np.abs(ux) + np.abs(uy)) + qhull
    return TriangleCircles(ux, uy, radius, tol, qhull > radius / 8.0)


def unresolved_sites(tri: Delaunay, small: np.ndarray) -> np.ndarray:
    """Mask of the sites whose pairs the triangulation cannot settle.

    These are the sites Qhull left out of every simplex (``tri.coplanar``;
    a near-coincident site) and the vertices of simplices below its
    resolution (``small`` from :func:`triangle_circles`).  A pair that
    touches none of them is still found: its ring is empty of the other
    sites too, so it is a Delaunay edge of them, and every cocircular
    tie it could hide in is resolvable.  The mask covers the sites
    only, not the frame.
    """
    mask = np.ones(len(tri.points), dtype=bool)
    mask[tri.simplices.ravel()] = False
    mask[tri.simplices[small].ravel()] = True
    return mask[:-FRAME_VERTICES]


def recover_cocircular_pairs(
    sites, kdtree: cKDTree, centers_x, centers_y, radii, tol
) -> set[tuple[int, int]]:
    """Pairwise site pairs of ≥4-site cocircular clusters.

    Shared cluster recovery used by this comparator and by the
    vectorized engine's Delaunay candidates
    (:func:`repro.engine.kernels._cocircular_site_pairs`): each
    candidate circle (``centers_x, centers_y, radii`` — typically
    triangle circumcircles) is probed with one batched KD-tree ball
    query; circles carrying four or more sites within ``tol`` of the
    circle (see :func:`triangle_circles`) form a cluster whose pairwise
    site pairs are emitted.  False pairs are harmless — every consumer
    re-checks candidates with the exact blocker predicate.
    """
    extra: set[tuple[int, int]] = set()
    if len(radii) == 0:
        return extra
    near_lists = kdtree.query_ball_point(
        np.column_stack((centers_x, centers_y)),
        radii + tol,
        return_sorted=False,
    )
    seen_clusters: set[tuple[int, ...]] = set()
    for i, near in enumerate(near_lists):
        if len(near) < 4:
            continue  # plain triangle: its edges are already candidates
        cx, cy, radius = centers_x[i], centers_y[i], radii[i]
        on_circle = [
            int(s)
            for s in near
            if abs(math.hypot(sites[s][0] - cx, sites[s][1] - cy) - radius)
            <= tol[i]
        ]
        if len(on_circle) < 4:
            continue
        cluster = tuple(sorted(on_circle))
        if cluster in seen_clusters:
            continue
        seen_clusters.add(cluster)
        for x in range(len(cluster)):
            for y in range(x + 1, len(cluster)):
                extra.add((cluster[x], cluster[y]))
    return extra


def _cocircular_cluster_pairs(
    tri: Delaunay, circles: TriangleCircles
) -> set[tuple[int, int]]:
    """Candidate edges missed by the triangulation under cocircular ties.

    "Every Gabriel edge is a Delaunay edge" fails for degenerate inputs
    with the strict predicate: when four or more points lie exactly on
    an empty circle, *all* their pairwise diametral edges whose open
    disk is otherwise empty qualify (e.g. both crossing diagonals of a
    unit lattice cell), but a triangulation keeps only some of them.
    Any such edge lives on a cocircular face of the Delaunay *complex*,
    and every triangle qhull carved out of that face has the whole
    cluster on its circumcircle — so scanning triangle circumcircles
    recovers the clusters (:func:`recover_cocircular_pairs`), and
    emitting each cluster's pairwise index pairs as extra candidates
    restores completeness.  The same holds for sites cocircular only
    within Qhull's resolution, where it may keep either diagonal.
    Circumcircles and the on-circle test use the triangulation's
    centred coordinates; clusters hold sites only (a frame vertex lies
    on no site pair's ring), and small simplices are left to the
    unresolved-site route.
    """
    sites = framed_sites(tri)
    # False for nan/inf too: degenerate slivers have no circumcircle.
    keep = ~circles.small & (circles.radius <= recoverable_radius_bound(sites))
    if not keep.any():
        return set()
    return recover_cocircular_pairs(
        sites,
        cKDTree(sites),
        circles.ux[keep],
        circles.uy[keep],
        circles.radius[keep],
        circles.tol[keep],
    )


#: Nearest sites whose exact blocker test cuts an unresolved site's edges.
_UNRESOLVED_PRUNERS = 32


def _unresolved_site_pairs(
    sites, unresolved: np.ndarray, kdtree
) -> set[tuple[int, int]]:
    """Candidate edges of the sites the triangulation cannot settle
    (:func:`unresolved_sites`).

    An unresolved site ``d`` is paired with every other site ``j``
    except where one of ``d``'s nearest sites ``s`` blocks the ring by
    the exact predicate ``(s - d) . (s - j) < 0`` on raw coordinates —
    a filter that cannot discard a true pair.
    """
    edges: set[tuple[int, int]] = set()
    k = min(_UNRESOLVED_PRUNERS, len(sites))
    for d in np.flatnonzero(unresolved).tolist():
        _dist, near = kdtree.query(sites[d], k=k)
        sx = sites[np.atleast_1d(near), 0]
        sy = sites[np.atleast_1d(near), 1]
        t = (sx[None, :] - sites[d, 0]) * (sx[None, :] - sites[:, 0, None]) + (
            sy[None, :] - sites[d, 1]
        ) * (sy[None, :] - sites[:, 1, None])
        for j in np.flatnonzero(~(t < 0.0).any(axis=1)).tolist():
            if j != d:
                edges.add((d, j) if d < j else (j, d))
    return edges


def gabriel_rcj(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    exclude_same_oid: bool = False,
) -> list[RCJPair]:
    """Compute the RCJ result in main memory via Delaunay + Gabriel test.

    Matches :func:`~repro.core.brute.brute_force_rcj` exactly (shared
    strict-containment convention) but runs in near ``O(n log n)``.
    """
    if not points_p or not points_q:
        return []

    # Group points by exact coordinates; Delaunay requires unique sites.
    groups: dict[tuple[float, float], tuple[list[Point], list[Point]]] = {}
    for p in points_p:
        groups.setdefault((p.x, p.y), ([], []))[0].append(p)
    for q in points_q:
        groups.setdefault((q.x, q.y), ([], []))[1].append(q)

    coords = list(groups)
    results = _coincident_pairs(groups, exclude_same_oid)

    sites = np.asarray(coords, dtype=np.float64)
    tri = checked_delaunay(sites)
    kdtree = cKDTree(sites)
    if tri is None:
        # No trustworthy triangulation: every site is unresolved.
        edges = _unresolved_site_pairs(
            sites, np.ones(len(sites), dtype=bool), kdtree
        )
    else:
        edges = set(map(tuple, site_edges(tri).tolist()))
        circles = triangle_circles(tri)
        edges |= _cocircular_cluster_pairs(tri, circles)
        edges |= _unresolved_site_pairs(
            sites, unresolved_sites(tri, circles.small), kdtree
        )
    for i, j in edges:
        gi = groups[coords[i]]
        gj = groups[coords[j]]
        # Bichromatic members on both sides; skip monochromatic edges.
        has_pairs = (gi[0] and gj[1]) or (gj[0] and gi[1])
        if not has_pairs:
            continue
        ax, ay = float(sites[i][0]), float(sites[i][1])
        bx, by = float(sites[j][0]), float(sites[j][1])
        cx, cy = (ax + bx) / 2.0, (ay + by) / 2.0
        r = math.hypot(ax - bx, ay - by) / 2.0
        # Candidate blockers from a slightly inflated KD-tree ball, then
        # the exact dot predicate shared with the oracle: a site is
        # strictly inside iff (s - a) . (s - b) < 0 (endpoints give
        # exactly zero and are excluded automatically).  The absolute
        # term scales with the midpoint, whose rounding is ~ulp(|c|).
        near = kdtree.query_ball_point(
            [cx, cy], r * (1.0 + 1e-7) + 1e-12 * (abs(cx) + abs(cy) + 1.0)
        )
        blocked = False
        for s in near:
            sx, sy = float(sites[s][0]), float(sites[s][1])
            if (sx - ax) * (sx - bx) + (sy - ay) * (sy - by) < 0.0:
                blocked = True
                break
        if blocked:
            continue
        for p in gi[0]:
            for q in gj[1]:
                if exclude_same_oid and p.oid == q.oid:
                    continue
                results.append(RCJPair(p, q))
        for p in gj[0]:
            for q in gi[1]:
                if exclude_same_oid and p.oid == q.oid:
                    continue
                results.append(RCJPair(p, q))
    return results
