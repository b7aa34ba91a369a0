"""Common influence join (CIJ) — the comparator of the paper's ref [19].

The CIJ of pointsets ``P`` and ``Q`` is the set of pairs ``<p, q>``
whose Voronoi cells — ``p``'s cell in the diagram of ``P`` and ``q``'s
cell in the diagram of ``Q`` — intersect.  Equivalently: some location
exists whose nearest ``P``-point is ``p`` *and* nearest ``Q``-point is
``q``.

The paper positions CIJ as the only other parameterless spatial join on
pointsets and observes that "result pairs of common influence join
cannot be exploited to determine RCJ results effectively".  This module
implements CIJ from scratch so the claim can be tested empirically
(`bench_cij_resemblance`): every RCJ pair is a CIJ pair in general
position (the ring centre witnesses the intersection), but CIJ is a
strict superset whose extra pairs carry no ring guarantee.

Implementation: Voronoi cells are built by clipping the (slightly
expanded) domain box with perpendicular-bisector half-planes — against
the point's Delaunay neighbours when scipy can triangulate, against all
other points otherwise — then candidate cell pairs come from a plane
sweep over cell bounding boxes and are decided by a convex SAT test.

This module is the CIJ's oracle and stays scalar: one
:func:`~repro.geometry.polygon.convex_polygons_intersect` call per
candidate pair, readable line by line.  The columnar pipeline
(:mod:`repro.engine.families`, ``cell-overlap -> sat-verify ->
collect``) reuses :func:`voronoi_cells` and decides all its candidate
pairs at once with :func:`repro.engine.kernels.cells_intersect`, which
evaluates the same IEEE expressions on the same floats, so its
decisions are bit-identical to the ones made here and the two pair
sets are equal.
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry.point import Point
from repro.geometry.polygon import (
    Vertex,
    box_polygon,
    clip_halfplane,
    convex_polygons_intersect,
    polygon_bbox,
)
from repro.geometry.rect import Rect
from repro.obs.trace import add_counter

#: Fraction by which the clipping box is expanded beyond the data MBR,
#: so boundary cells keep their full shared edges.
_BOX_MARGIN = 0.05


def cij_bounds(
    points_p: Sequence[Point], points_q: Sequence[Point]
) -> Rect:
    """The default CIJ clipping region: the joint MBR expanded by the
    box margin.

    Factored out so the pointwise oracle and the columnar cell-overlap
    pipeline (:mod:`repro.engine.families`) compute the *same* floats —
    identical bounds give identical clipped cells, which is what makes
    their result pair sets comparable bit-for-bit.
    """
    mbr = Rect.from_points(list(points_p) + list(points_q))
    margin_x = (mbr.xmax - mbr.xmin) * _BOX_MARGIN + 1.0
    margin_y = (mbr.ymax - mbr.ymin) * _BOX_MARGIN + 1.0
    return Rect(
        mbr.xmin - margin_x,
        mbr.ymin - margin_y,
        mbr.xmax + margin_x,
        mbr.ymax + margin_y,
    )


def voronoi_cell(
    p: Point, others: Sequence[Point], box: Sequence[Vertex]
) -> list[Vertex]:
    """The Voronoi cell of ``p`` against ``others``, clipped to ``box``.

    Each competitor contributes the bisector half-plane of locations
    closer to it than to ``p``; the cell is what survives.  Coincident
    competitors (same location as ``p``) contribute a degenerate plane
    and are skipped — they share the cell.
    """
    cell = list(box)
    for z in others:
        nx, ny = z.x - p.x, z.y - p.y
        if nx == 0.0 and ny == 0.0:
            continue
        mx, my = (p.x + z.x) / 2.0, (p.y + z.y) / 2.0
        cell = clip_halfplane(cell, mx, my, nx, ny)
        if not cell:
            break
    return cell


def _delaunay_neighbors(points: Sequence[Point]) -> list[list[int]] | None:
    """Index lists of Delaunay neighbours, or None when triangulation
    is impossible (few points, collinear input, qhull failure)."""
    if len(points) < 5:
        return None
    try:
        import numpy as np
        from scipy.spatial import Delaunay
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        return None
    coords = np.array([(p.x, p.y) for p in points])
    try:
        tri = Delaunay(coords)
    except Exception:
        return None
    if tri.coplanar.size:
        # Points qhull dropped would silently lose bisectors; fall back.
        return None
    neighbors: list[set[int]] = [set() for _ in points]
    for simplex in tri.simplices:
        a, b, c = int(simplex[0]), int(simplex[1]), int(simplex[2])
        neighbors[a].update((b, c))
        neighbors[b].update((a, c))
        neighbors[c].update((a, b))
    return [sorted(s) for s in neighbors]


def voronoi_cells(
    points: Sequence[Point], bounds: Rect | None = None
) -> list[list[Vertex]]:
    """Clipped Voronoi cells of every point, index-aligned with input.

    Parameters
    ----------
    points:
        The pointset (duplicates allowed: coincident points share a
        cell).
    bounds:
        Clipping region; the expanded MBR of the points by default.

    Notes
    -----
    Clipping against Delaunay neighbours only is exact: a Voronoi cell
    is the intersection of the bisectors with its Delaunay neighbours,
    every other bisector being redundant.  Degenerate inputs (fewer
    than five points, a Qhull failure, sites Qhull dropped — exact
    duplicates among them) fall back to all-pairs clipping, which is
    quadratic in the side's size; the number of points that took it
    is the ``cell_fallback`` counter of the enclosing span.
    """
    if not points:
        return []
    if bounds is None:
        mbr = Rect.from_points(points)
        margin_x = (mbr.xmax - mbr.xmin) * _BOX_MARGIN + 1.0
        margin_y = (mbr.ymax - mbr.ymin) * _BOX_MARGIN + 1.0
        bounds = Rect(
            mbr.xmin - margin_x,
            mbr.ymin - margin_y,
            mbr.xmax + margin_x,
            mbr.ymax + margin_y,
        )
    box = box_polygon(bounds.xmin, bounds.ymin, bounds.xmax, bounds.ymax)

    neighbors = _delaunay_neighbors(points)
    if neighbors is None:
        add_counter("cell_fallback", len(points))
    cells: list[list[Vertex]] = []
    for i, p in enumerate(points):
        if neighbors is None:
            others: Sequence[Point] = [z for j, z in enumerate(points) if j != i]
        else:
            others = [points[j] for j in neighbors[i]]
        cells.append(voronoi_cell(p, others, box))
    return cells


def common_influence_join(
    points_p: Sequence[Point],
    points_q: Sequence[Point],
    bounds: Rect | None = None,
) -> list[tuple[Point, Point]]:
    """All pairs whose Voronoi cells intersect (closed intersection).

    Parameters
    ----------
    points_p, points_q:
        The two pointsets.
    bounds:
        Clipping region for both diagrams; defaults to the expanded
        joint MBR, so both diagrams are clipped identically.

    Returns
    -------
    Result pairs ``(p, q)``.  Symmetric: swapping inputs swaps the pair
    order but selects the same pairs.
    """
    if not points_p or not points_q:
        return []
    if bounds is None:
        bounds = cij_bounds(points_p, points_q)
    cells_p = voronoi_cells(points_p, bounds)
    cells_q = voronoi_cells(points_q, bounds)

    # Candidate pairs by bounding-box sweep, decided by SAT.
    from repro.sweep import sweep_rect_pairs

    items_p = [
        (p, cell, Rect(*polygon_bbox(cell)))
        for p, cell in zip(points_p, cells_p)
        if cell
    ]
    items_q = [
        (q, cell, Rect(*polygon_bbox(cell)))
        for q, cell in zip(points_q, cells_q)
        if cell
    ]
    results: list[tuple[Point, Point]] = []
    for (p, cell_p, _), (q, cell_q, _) in sweep_rect_pairs(
        items_p,
        items_q,
        left_rect=lambda t: t[2],
        right_rect=lambda t: t[2],
    ):
        if convex_polygons_intersect(cell_p, cell_q):
            results.append((p, q))
    return results
