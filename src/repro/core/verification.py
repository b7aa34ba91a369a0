"""The Verification step (paper, Algorithm 3).

Candidate circles are verified concurrently against one R-tree.  At a
non-leaf entry a candidate dies when the entry's MBR has a whole face
strictly inside the circle (the MBR property guarantees a data point on
every face); a subtree is descended only when its MBR intersects at
least one live circle; at leaf entries the strict-interior containment
test is applied directly.

For large candidate sets a plane-sweep fast path narrows the
circle-vs-entry comparisons by x-interval overlap, as the paper suggests
("plane-sweep is an efficient method for detecting the intersection
between two groups of rectangles").

Leaf batching
-------------
Leaf-level containment — the hot, all-pairs part of the traversal — is
routed through the vectorized batch kernel
(:func:`repro.engine.kernels.verify_rings_batch`) whenever enough
candidates are live: one KD-tree query for the leaf points nearest each
ring's midpoint, one vectorized evaluation of the *same* exact dot
predicate over them, and a ball query only for the rings those nearest
points cannot settle replace the per-circle Python loop.  A candidate dies at a leaf iff some leaf point
lies strictly inside its ring, and that decision is independent of the
order the leaf's points are examined in, so batching changes no
aliveness outcome, no descent decision, and therefore no node-access or
page-fault figure: the R-tree algorithms keep charging the paper's
cost model unchanged (the accounting-regression pins stay bit-exact)
while verification stops being circle-at-a-time.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.core.pairs import Candidate
from repro.rtree.tree import RTree

#: Below this many live candidates the simple nested loop beats the
#: sweep's sorting overhead.
_SWEEP_THRESHOLD = 16

#: Minimum live-candidate x leaf-point volume for the batch kernel;
#: under it the numpy/KD-tree setup costs more than the plain loop.
_BATCH_LEAF_WORK = 256


def _verify_leaf(entries, cands: list[Candidate]) -> None:
    """Kill candidates containing a leaf point, batched when worthwhile.

    Semantically identical to the per-circle loop — a candidate dies iff
    some entry lies strictly inside its ring, under the same IEEE dot
    predicate — so the traversal above sees the exact same aliveness
    whichever path ran.
    """
    live = [c for c in cands if c.alive]
    if not live or not entries:
        return
    if len(live) * len(entries) < _BATCH_LEAF_WORK:
        for p in entries:
            for cand in live:
                if cand.alive and cand.circle.contains_point(p.x, p.y):
                    cand.alive = False
        return
    # Imported lazily: the core layer must not pull the numpy/scipy
    # engine stack in at import time.
    import numpy as np
    from scipy.spatial import cKDTree

    from repro.engine.kernels import verify_rings_batch

    m = len(live)
    px = np.fromiter((c.circle.px for c in live), np.float64, count=m)
    py = np.fromiter((c.circle.py for c in live), np.float64, count=m)
    qx = np.fromiter((c.circle.qx for c in live), np.float64, count=m)
    qy = np.fromiter((c.circle.qy for c in live), np.float64, count=m)
    sx = np.fromiter((p.x for p in entries), np.float64, count=len(entries))
    sy = np.fromiter((p.y for p in entries), np.float64, count=len(entries))
    alive = verify_rings_batch(
        px, py, qx, qy, cKDTree(np.column_stack((sx, sy))), sx, sy
    )
    for cand, ok in zip(live, alive.tolist()):
        if not ok:
            cand.alive = False


def _verify_node(tree: RTree, pid: int, cands: list[Candidate]) -> None:
    node = tree.read_node(pid)
    if node.is_leaf:
        _verify_leaf(node.entries, cands)
        return
    for b in node.entries:
        sub: list[Candidate] = []
        for cand in cands:
            if not cand.alive:
                continue
            circle = cand.circle
            if not circle.intersects_rect(b.rect):
                continue
            if circle.contains_rect_face(b.rect):
                cand.alive = False
                continue
            sub.append(cand)
        if sub:
            _verify_node(tree, b.child, sub)


def _verify_node_sweep(tree: RTree, pid: int, cands: list[Candidate]) -> None:
    """Same semantics as :func:`_verify_node` with an x-interval index.

    Candidates are sorted by the left edge of their circle's bounding
    box; for each node entry only candidates whose x-interval overlaps
    the entry's are examined.
    """
    node = tree.read_node(pid)
    if node.is_leaf:
        # A point outside a candidate's x-interval cannot lie inside its
        # ring, so handing the whole leaf to the batch path tests a
        # superset of the sweep's (point, candidate) pairs with
        # identical kills — and needs no x-interval index at all.
        _verify_leaf(node.entries, cands)
        return

    ordered = sorted(cands, key=lambda c: c.circle.cx - c.circle.r)
    starts = [c.circle.cx - c.circle.r for c in ordered]

    def overlapping(xmin: float, xmax: float) -> list[Candidate]:
        # Candidates with start <= xmax whose interval reaches xmin.
        hi = bisect_left(starts, xmax, 0, len(starts))
        out = []
        for i in range(hi):
            c = ordered[i]
            if c.alive and c.circle.cx + c.circle.r >= xmin:
                out.append(c)
        return out

    for b in node.entries:
        sub: list[Candidate] = []
        for cand in overlapping(b.rect.xmin, b.rect.xmax):
            circle = cand.circle
            if not circle.intersects_rect(b.rect):
                continue
            if circle.contains_rect_face(b.rect):
                cand.alive = False
                continue
            sub.append(cand)
        if sub:
            _verify_node(tree, b.child, sub)


def verify_circles(tree: RTree, candidates: Sequence[Candidate]) -> None:
    """Kill every candidate whose circle strictly contains a point of
    ``tree`` (Algorithm 3).  Mutates ``alive`` flags in place."""
    live = [c for c in candidates if c.alive]
    if not live or tree.root_pid is None:
        return
    if len(live) >= _SWEEP_THRESHOLD:
        _verify_node_sweep(tree, tree.root_pid, live)
    else:
        _verify_node(tree, tree.root_pid, live)
