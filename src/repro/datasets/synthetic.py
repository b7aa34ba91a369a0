"""Synthetic workloads with the paper's parameters.

Section 5: "Uniform synthetic datasets (UI data) were generated by
assigning random values to coordinates of points independently" and,
for the skew experiment, ``w`` Gaussian clusters of equal size with
randomly chosen centres and per-dimension standard deviation 1000 over
the domain ``[0, 10000]²``.
"""

from __future__ import annotations

import random

from repro.geometry.point import Point

#: Coordinate domain of every dataset (paper: "Coordinate values in all
#: datasets are normalized to the interval [0, 10000]").
DOMAIN = (0.0, 10000.0)

#: Standard deviation of each Gaussian cluster along each dimension.
CLUSTER_STD = 1000.0


def uniform(
    n: int,
    seed: int = 0,
    domain: tuple[float, float] = DOMAIN,
    start_oid: int = 0,
) -> list[Point]:
    """The paper's UI workload: ``n`` independent uniform points."""
    if n < 0:
        raise ValueError(f"negative dataset size {n}")
    lo, hi = domain
    rng = random.Random(seed)
    return [
        Point(rng.uniform(lo, hi), rng.uniform(lo, hi), start_oid + i)
        for i in range(n)
    ]


def gaussian_clusters(
    n: int,
    w: int,
    seed: int = 0,
    std: float = CLUSTER_STD,
    domain: tuple[float, float] = DOMAIN,
    start_oid: int = 0,
) -> list[Point]:
    """``n`` points in ``w`` equal-size Gaussian clusters (paper, Fig. 18).

    Cluster centres are uniform in the domain; points are Gaussian with
    per-dimension ``std`` around their centre, clamped to the domain.
    The clamping piles a cluster's tails onto the domain edges, and
    tails past two edges onto the shared corner as exactly coincident
    points: ``clustered_pair(20000, 25000, seed=1, w=10)`` puts 138 P
    and 119 Q points on ``(0, 0)``, so 16,422 cross pairs tie at
    distance 0.
    """
    if n < 0:
        raise ValueError(f"negative dataset size {n}")
    if w <= 0:
        raise ValueError(f"cluster count must be positive, got {w}")
    lo, hi = domain
    rng = random.Random(seed)
    centers = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(w)]
    points: list[Point] = []
    for i in range(n):
        cx, cy = centers[i % w]  # equal-size clusters
        x = min(max(rng.gauss(cx, std), lo), hi)
        y = min(max(rng.gauss(cy, std), lo), hi)
        points.append(Point(x, y, start_oid + i))
    return points
