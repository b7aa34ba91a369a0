"""Main-memory RCJ via the Gabriel-graph equivalence.

The RCJ condition — the circle with diameter ``pq`` contains no other
point of ``P ∪ Q`` strictly inside — is exactly the *Gabriel graph*
edge condition over ``P ∪ Q``.  Since every Gabriel edge is a Delaunay
edge (for points in general position), the RCJ result can be computed
in main memory by:

1. building the Delaunay triangulation of the distinct coordinates of
   ``P ∪ Q`` (scipy/Qhull);
2. keeping the Delaunay edges whose diameter circle is empty — blocker
   candidates come from a slightly inflated KD-tree ball query and are
   confirmed with the exact dot-product predicate shared with the
   oracle (see :mod:`repro.geometry.ring`);
3. emitting the bichromatic pairs of each surviving edge, plus the
   pairs of coincident ``P``/``Q`` points (their circle has radius zero
   and is trivially empty).

This is not one of the paper's algorithms — it serves as an independent
comparator for correctness testing and as a main-memory performance
ablation (it has no I/O model and assumes the data fits in RAM).
Inputs Qhull cannot triangulate faithfully (fewer than four distinct
locations, collinear or near-flat sets; see :func:`checked_delaunay`)
fall back to the brute-force oracle.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from repro.core.brute import brute_force_rcj
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


def recoverable_radius_bound(kdtree: cKDTree) -> float:
    """Largest circumradius a cocircular cluster can possibly have.

    A missed edge's circle is the diametral ring of a site pair, so its
    radius is at most half the site bounding-box diagonal, and a circle
    flagged beside it agrees to 1e-6 relative: the full diagonal bounds
    both.  Simplices with larger (or nan/inf) circumradii are slivers
    that cannot hide a missed edge; admitting them would make the
    radius-scaled on-circle tolerance swallow whole near-flat chains
    into one giant "cluster".
    """
    spans = kdtree.maxes - kdtree.mins
    return math.hypot(spans[0], spans[1])


#: Relative width (smallest over largest singular value of the centred
#: sites) at or below which Qhull's triangulation is not trusted: it
#: accepts such near-flat sets but omits chain edges.
FLAT_WIDTH = 1e-9


def checked_delaunay(sites: np.ndarray) -> Delaunay | None:
    """Qhull's triangulation of the distinct ``sites``, or ``None``
    where it cannot be trusted to hold every Gabriel edge.

    Refused: fewer than four sites; a ``QhullError``; near-flat sets
    (relative width at most :data:`FLAT_WIDTH`, i.e. scatter
    eigenvalues ``λmin ≤ 1e-18·λmax``); and triangulations whose
    simplices index past ``sites`` (the point at infinity of Qhull's
    ``Qz`` option leaking through on degenerate input).  Callers fall
    back to an exact route: brute force in :func:`gabriel_rcj`, the
    exact scan behind the array engine's Delaunay backstop
    (:mod:`repro.engine.kernels`).
    """
    n = len(sites)
    if n < 4:
        return None
    width = np.linalg.svd(sites - sites.mean(axis=0), compute_uv=False)
    if not width[1] > FLAT_WIDTH * width[0]:
        return None
    try:
        tri = Delaunay(sites)
    except QhullError:
        return None
    if tri.simplices.size and int(tri.simplices.max()) >= n:
        return None
    return tri


def recover_cocircular_pairs(
    sites, kdtree: cKDTree, centers_x, centers_y, radii
) -> set[tuple[int, int]]:
    """Pairwise site pairs of ≥4-site cocircular clusters.

    Shared cluster recovery used by this comparator and by the
    vectorized engine's Delaunay backstop
    (:func:`repro.engine.kernels._cocircular_site_pairs`): each
    candidate circle (``centers_x, centers_y, radii`` — typically
    triangle circumcircles) is probed with one batched KD-tree ball
    query; circles carrying four or more sites *exactly on* the circle
    (within a tolerance tied to the radius) form a cluster whose
    pairwise site pairs are emitted.  False pairs are harmless — every
    consumer re-checks candidates with the exact blocker predicate.
    """
    extra: set[tuple[int, int]] = set()
    if len(radii) == 0:
        return extra
    radii = np.asarray(radii, dtype=np.float64)
    tol = 1e-9 * (radii + 1.0)
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


def _cocircular_cluster_pairs(tri, sites, kdtree) -> set[tuple[int, int]]:
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
    restores completeness.
    """
    max_radius = recoverable_radius_bound(kdtree)
    centers_x: list[float] = []
    centers_y: list[float] = []
    radii: list[float] = []
    for simplex in tri.simplices:
        pa, pb, pc = (sites[int(v)] for v in simplex)
        # Circumcenter via the perpendicular-bisector linear system.
        d = 2.0 * (
            pa[0] * (pb[1] - pc[1])
            + pb[0] * (pc[1] - pa[1])
            + pc[0] * (pa[1] - pb[1])
        )
        if d == 0.0:  # degenerate sliver; no circumcircle
            continue
        sq_a = pa[0] * pa[0] + pa[1] * pa[1]
        sq_b = pb[0] * pb[0] + pb[1] * pb[1]
        sq_c = pc[0] * pc[0] + pc[1] * pc[1]
        ux = (
            sq_a * (pb[1] - pc[1])
            + sq_b * (pc[1] - pa[1])
            + sq_c * (pa[1] - pb[1])
        ) / d
        uy = (
            sq_a * (pc[0] - pb[0])
            + sq_b * (pa[0] - pc[0])
            + sq_c * (pb[0] - pa[0])
        ) / d
        radius = math.hypot(pa[0] - ux, pa[1] - uy)
        if not (radius <= max_radius):  # False for nan/inf too
            continue
        centers_x.append(ux)
        centers_y.append(uy)
        radii.append(radius)
    return recover_cocircular_pairs(sites, kdtree, centers_x, centers_y, radii)


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
    if tri is None:
        distinct = brute_force_rcj(points_p, points_q, exclude_same_oid)
        seen = {pair.key() for pair in results}
        results.extend(p for p in distinct if p.key() not in seen)
        return results

    edges: set[tuple[int, int]] = set()
    for simplex in tri.simplices:
        a, b, c = int(simplex[0]), int(simplex[1]), int(simplex[2])
        edges.add((a, b) if a < b else (b, a))
        edges.add((a, c) if a < c else (c, a))
        edges.add((b, c) if b < c else (c, b))

    kdtree = cKDTree(sites)
    edges |= _cocircular_cluster_pairs(tri, sites, kdtree)
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
        # exactly zero and are excluded automatically).
        near = kdtree.query_ball_point([cx, cy], r * (1.0 + 1e-7) + 1e-12)
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
