"""The bulk-RCJ fuzz strategy: adversarial pointset pairs.

One composite strategy draws a family from
:mod:`repro.datasets.worstcase` (collinear with optional near-collinear
jitter, cocircular, lattice, two clusters, coincident), a uniform set
or clamped Gaussian clusters (tails clamped onto a box, so long
collinear runs and coincident corner piles sit on the hull, the
geometry that once made Qhull grind), then stresses it the ways that
have broken exact geometry before:

- extreme scales (1e-6 .. 1e9) and translations up to ±1e9, which
  shrink the gaps between sites toward the last bits of the mantissa;
- far sites, 1e4 to 1e10 times the family's extent away, which leave
  a lattice cell or a cocircular ring far from the centroid: ties
  there are only as exact as circumcircles computed near the cell,
  and Qhull resolves them only to a fraction of the far extent;
- near-coincident sites, a few ulps (or 1e-128) away from an existing
  site — the sites Qhull drops from its triangulation;
- cross-side duplicates (one location on both sides);
- sides cut to 0, 1 or 2 points;
- self-join mode (``exclude_same_oid``; both sides number their points
  from 0, so equal oids exist across the sides).

A drawn case is ``(coords_p, coords_q, exclude_same_oid)``.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.datasets import worstcase
from repro.datasets.synthetic import gaussian_clusters, uniform

FAMILIES = (
    "collinear",
    "cocircular",
    "lattice",
    "two_clusters",
    "coincident",
    "uniform",
    "clamped",
)


def _family(draw) -> list[tuple[float, float]]:
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(min_value=0, max_value=28))
    seed = draw(st.integers(min_value=0, max_value=1 << 16))
    if family == "collinear":
        jitter = draw(st.sampled_from((0.0, 1e-12, 1e-10, 1e-9, 1e-6, 1e-3)))
        points = worstcase.collinear(n, jitter=jitter, seed=seed)
    elif family == "cocircular":
        points = worstcase.cocircular(n)
    elif family == "lattice":
        points = worstcase.lattice(n)
    elif family == "two_clusters":
        points = worstcase.two_clusters(n, seed=seed)
    elif family == "coincident":
        points = worstcase.coincident(n)
    elif family == "clamped":
        # Cluster spreads of 0.5..3 box widths clamp most tails onto
        # the box edges, and past two edges onto a shared corner.
        points = gaussian_clusters(
            n,
            w=draw(st.integers(min_value=1, max_value=3)),
            seed=seed,
            std=draw(st.sampled_from((0.5, 1.0, 3.0))),
            domain=(0.0, 1.0),
        )
    else:
        points = uniform(n, seed=seed)
    return [(p.x, p.y) for p in points]


def _near(draw, value: float) -> float:
    """A value a few ulps from ``value``, or 1e-128 away from it."""
    if draw(st.booleans()):
        return value + draw(st.sampled_from((1e-128, -1e-128)))
    toward = draw(st.sampled_from((math.inf, -math.inf)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        value = math.nextafter(value, toward)
    return value


@st.composite
def bulk_rcj_cases(draw):
    """Strategy: ``(coords_p, coords_q, exclude_same_oid)``."""
    coords = _family(draw)
    scale = 10.0 ** draw(st.integers(min_value=-6, max_value=9))
    shift_x = draw(st.sampled_from((0.0, 1e3, 1e6, -1e6, 1e9, -1e9)))
    shift_y = draw(st.sampled_from((0.0, 1e6, -1e9, 1e9)))
    coords = [(x * scale + shift_x, y * scale + shift_y) for x, y in coords]

    if coords and draw(st.booleans()):
        xs = [x for x, _ in coords]
        ys = [y for _, y in coords]
        span = max(max(xs) - min(xs), max(ys) - min(ys)) or scale
        x0, y0 = coords[0]
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            far = span * 10.0 ** draw(st.integers(min_value=4, max_value=10))
            angle = draw(st.sampled_from((0.0, 1.0, 2.5, 4.0, 5.5)))
            coords.append(
                (x0 + far * math.cos(angle), y0 + far * math.sin(angle))
            )

    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if not coords:
            break
        x, y = coords[draw(st.integers(0, len(coords) - 1))]
        if draw(st.booleans()):
            coords.append((_near(draw, x), y))
        else:
            coords.append((x, _near(draw, y)))

    coords_p, coords_q = coords[0::2], coords[1::2]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if coords_p:
            coords_q.append(coords_p[draw(st.integers(0, len(coords_p) - 1))])

    cut_p = draw(st.sampled_from((None, 0, 1, 2)))
    cut_q = draw(st.sampled_from((None, 0, 1, 2)))
    if cut_p is not None:
        coords_p = coords_p[:cut_p]
    if cut_q is not None:
        coords_q = coords_q[:cut_q]
    return coords_p, coords_q, draw(st.booleans())


# ----------------------------------------------------------------------
# dynamic maintenance: batch interleavings over edge-heavy populations
# ----------------------------------------------------------------------
#: A case's coordinate domain (the backends' ``bounds``): the paper's
#: box, the unit box clamped clusters live in, or the initial data's
#: own bounding box (so box inserts land on the live span's edges).
BOUNDS = ((0.0, 0.0, 10000.0, 10000.0), (0.0, 0.0, 1.0, 1.0), None)

#: The ways one batch may be malformed (:func:`repro.core.dynamic.
#: validate_batch` rejects each before any mutation).
MALFORMED = (
    "delete_absent",
    "delete_twice",
    "insert_present",
    "insert_twice",
    "bad_side",
)


def _live_box(live) -> tuple[float, float, float, float] | None:
    coords = [xy for side in live.values() for xy in side.values()]
    if not coords:
        return None
    xs = [x for x, _ in coords]
    ys = [y for _, y in coords]
    return min(xs), min(ys), max(xs), max(ys)


def _on_box(draw, box, live) -> tuple[float, float]:
    """A point exactly on an edge (or corner) of ``box``; the free
    coordinate is a corner's, a live point's or a fraction of the edge."""
    x0, y0, x1, y1 = box
    coords = [xy for side in live.values() for xy in side.values()]
    along = draw(st.sampled_from(("corner", "live", "fraction")))
    vertical = draw(st.booleans())
    fixed = draw(st.sampled_from((x0, x1) if vertical else (y0, y1)))
    lo, hi = (y0, y1) if vertical else (x0, x1)
    if along == "corner" or (along == "live" and not coords):
        free = draw(st.sampled_from((lo, hi)))
    elif along == "live":
        x, y = coords[draw(st.integers(0, len(coords) - 1))]
        free = y if vertical else x
    else:
        free = lo + (hi - lo) * draw(st.sampled_from((0.25, 0.5, 1 / 3)))
    return (fixed, free) if vertical else (free, fixed)


def _insert_site(draw, bounds, live) -> tuple[float, float]:
    """Where an inserted (or moved) point lands: on the domain box, on
    the live span's edge, on or a few ulps from a live point, or
    anywhere in the domain."""
    coords = [xy for side in live.values() for xy in side.values()]
    kind = draw(st.sampled_from(("box", "span", "coincident", "near", "free")))
    if kind in ("coincident", "near") and coords:
        x, y = coords[draw(st.integers(0, len(coords) - 1))]
        if kind == "near":
            if draw(st.booleans()):
                x = _near(draw, x)
            else:
                y = _near(draw, y)
        return x, y
    if kind == "span" and coords:
        return _on_box(draw, _live_box(live), live)
    if kind == "box":
        return _on_box(draw, bounds, live)
    x0, y0, x1, y1 = bounds
    return (
        x0 + (x1 - x0) * draw(st.floats(0.0, 1.0)),
        y0 + (y1 - y0) * draw(st.floats(0.0, 1.0)),
    )


def _valid_batch(draw, bounds, live, next_oid):
    """One well-formed batch against ``live`` (mutated to the result):
    0-2 deletes and 0-2 inserts per side; a deleted oid may come back
    as a move, possibly onto its own old site."""
    deletes, inserts = [], []
    for side in ("P", "Q"):
        oids = sorted(live[side])
        k = draw(st.integers(0, min(2, len(oids))))
        gone = draw(st.permutations(oids))[:k] if k else []
        for oid in gone:
            deletes.append((*live[side][oid], oid, side))
        moved = [oid for oid in gone if draw(st.booleans())]
        fresh = draw(st.integers(0, 2))
        for oid in moved:
            old = live[side][oid]
            stay = draw(st.booleans())
            site = old if stay else _insert_site(draw, bounds, live)
            inserts.append((*site, oid, side))
        for _ in range(fresh):
            inserts.append(
                (*_insert_site(draw, bounds, live), next_oid[side], side)
            )
            next_oid[side] += 1
    for x, y, oid, side in deletes:
        del live[side][oid]
    for x, y, oid, side in inserts:
        live[side][oid] = (x, y)
    return inserts, deletes


def _malformed_batch(draw, live, next_oid):
    """One batch :func:`~repro.core.dynamic.validate_batch` rejects;
    ``live`` stays as it is."""
    kind = draw(st.sampled_from(MALFORMED))
    side = draw(st.sampled_from(("P", "Q")))
    present = sorted(live[side])
    if kind in ("delete_twice", "insert_present") and not present:
        kind = "delete_absent"
    if kind == "delete_absent":
        return [], [(0.0, 0.0, next_oid[side] + 7, side)]
    if kind == "bad_side":
        return [(0.0, 0.0, next_oid[side], "R")], []
    if kind == "insert_twice":
        point = (0.0, 0.0, next_oid[side], side)
        return [point, point], []
    oid = present[draw(st.integers(0, len(present) - 1))]
    point = (*live[side][oid], oid, side)
    if kind == "delete_twice":
        return [], [point, point]
    return [point], []  # insert_present: a move without its delete


@st.composite
def dynamic_cases(draw):
    """Strategy: ``(coords_p, coords_q, bounds, batches)``.

    The initial sides come from the bulk fuzz's families (clamped
    clusters, collinear runs, lattices, ...); initial oids are list
    positions.  Each batch is ``(inserts, deletes, valid)`` with
    ``(x, y, oid, side)`` entries, applied in order: a valid batch
    mixes deletes, inserts and moves, an invalid one must be rejected
    and change nothing.
    """
    coords = _family(draw)
    coords_p, coords_q = coords[0::2], coords[1::2]
    bounds = draw(st.sampled_from(BOUNDS))
    live = {
        "P": dict(enumerate(coords_p)),
        "Q": dict(enumerate(coords_q)),
    }
    if bounds is None:
        bounds = _live_box(live) or (0.0, 0.0, 1.0, 1.0)
    next_oid = {"P": len(coords_p), "Q": len(coords_q)}
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 5)) == 0:
            batches.append((*_malformed_batch(draw, live, next_oid), False))
        else:
            batches.append((*_valid_batch(draw, bounds, live, next_oid), True))
    return coords_p, coords_q, bounds, batches
