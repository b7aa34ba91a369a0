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
