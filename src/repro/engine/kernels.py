"""Vectorized batch kernels for the RCJ hot path.

The pointwise algorithms (:mod:`repro.core.inj`, :mod:`repro.core.bij`)
process one probe point — or one leaf — at a time through Python
objects.  The kernels here process *blocks* of probe points through
numpy arrays:

- :func:`knn_candidate_blocks` — candidate generation: every probe
  point's nearest ``P`` neighbours come from one :class:`cKDTree` batch
  query, the paper's Ψ− half-plane pruning (Lemmas 1/3/5) is evaluated
  over whole candidate blocks by :func:`halfplane_prune_window`, and an
  angular-coverage certificate (:func:`cone_cover`) decides, per probe,
  whether any point beyond the KNN window could still join.  Probes
  without a certificate escalate: first to a wider window, finally to a
  direction-filtered scan whose survivors are pruned with the exact
  half-plane predicate.
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

Exactness
---------
The engine is *filter conservative, verify exact*.  Filtering (window
pruning, coverage certificates, the Delaunay backstop) may only ever
discard a pair when a blocker provably exists under the oracle's own
predicate — every shortcut carries a margin dominating its
floating-point error, and anything uncertain is kept as a candidate.
The final batch verification then evaluates the *same IEEE form* as the
brute-force oracle (:mod:`repro.core.brute`) and the object-level
geometry (:mod:`repro.geometry.ring`): differences first, two products,
one sum, strict comparison against zero — bit-for-bit the oracle's
test.  Together the two halves make the array engine return result sets
identical to the pointwise algorithms; the cross-algorithm equivalence
suite pins this.

The main inference that is *not* a direct predicate evaluation is the
KNN stopping certificate.  Take a probe ``q`` whose window radius (the
distance of its ``k``-th ``P``-neighbour) is ``d_k``, and a window
neighbour ``i`` at distance ``r_i``.  For any point ``x`` beyond the
window at angle ``t`` from ``q``'s direction to ``i``::

    |qx| cos(t) > r_i   =>   (x - i) . (i - q) > 0,

i.e. ``i`` lies strictly inside the ring of ``<x, q>`` and the pair is
dead (Lemma 1) — so ``i`` *covers* the open cone of half-angle
``arccos(r_i / (0.95 d_k))`` around its own direction.  When the cones
of the window neighbours cover the full circle of directions, no point
beyond the window can join ``q`` and the search stops.  The ``0.95``
safety factor leaves a ≥ 5 % relative margin on the blocker predicate,
orders of magnitude above IEEE evaluation error, so the oracle's own
exact test is guaranteed to agree with every pair the certificate
discards.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from repro.core.gabriel import (
    checked_delaunay,
    recover_cocircular_pairs,
    recoverable_radius_bound,
)
from repro.engine.arrays import PointArray
from repro.obs.trace import add_counter, stage_timer

#: Neighbour window of the first candidate-generation stage.
DEFAULT_K0 = 16

#: Safety factor of the coverage certificate: a neighbour's cone is
#: computed from ``r_i / 0.95`` instead of ``r_i``, giving every
#: certificate-based discard a >= 5% relative margin over the exact
#: blocker predicate.
_COVER_SAFETY = 0.95

#: Probe points processed per KNN batch.
_Q_BLOCK = 4096

#: Probe points processed per widened second-stage batch (larger window,
#: so the pairwise pruning block is bigger per probe).
_WIDE_BLOCK = 1024

#: Window width of the widened second stage.
_WIDE_K = 64

#: Pruners used per probe by the full-scan stage.
_SCAN_PRUNERS = 32

#: Above this much full-scan work (escalated probes x |P|), stage 3
#: switches from the per-probe scan to the Delaunay candidate path.
_SCAN_WORK_LIMIT = 4_000_000

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


def halfplane_prune_window(
    qx: np.ndarray, qy: np.ndarray, nx: np.ndarray, ny: np.ndarray
) -> np.ndarray:
    """Blocked Ψ− pruning inside each probe's neighbour window.

    Parameters
    ----------
    qx, qy:
        Probe coordinates, shape ``(B,)``.
    nx, ny:
        Window neighbour coordinates, shape ``(B, k)``.

    Returns
    -------
    Boolean ``(B, k)`` mask: entry ``[b, j]`` is True when some other
    window point ``i`` lies strictly inside the ring of
    ``<n[b, j], q[b]>``: ``(n_j - n_i) . (n_i - q) > 0``, rewritten over
    probe-centred offsets ``A = n - q`` as ``A_i . A_j - |A_i|²`` so the
    whole window evaluates as one batched matmul.  The comparison
    carries a margin dominating the rewrite's floating-point error, so
    the mask is *conservative*: a pair the oracle would keep is never
    pruned, while boundary ties are kept for the exact batch
    verification to settle.  A pruner coincident with ``q`` or with the
    candidate contributes exactly zero and never prunes (degenerate
    Ψ−), and the diagonal ``i == j`` is harmless for the same reason.
    """
    ax = nx - qx[:, None]
    ay = ny - qy[:, None]
    a = np.stack((ax, ay), axis=-1)  # (B, k, 2)
    g = a @ a.transpose(0, 2, 1)  # G[b, i, j] = A_i . A_j
    norms = np.einsum("bii->bi", g)  # |A_i|²
    t = g - norms[:, :, None]  # T[b, i, j] = (n_j - n_i) . (n_i - q)
    # All |A| are bounded by the window radius, so 1e-12 of the largest
    # |A_i|² dominates the ~1e-15 relative rewrite error with three
    # orders of magnitude to spare.
    margin = 1e-12 * norms.max(axis=1)
    return np.any(t > margin[:, None, None], axis=1)


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

    Each window neighbour at distance ``r_i > 0`` covers the cone of
    directions within ``arccos(max(r_i, r_floor) / (0.95 d_k))`` of its
    own direction (see the module docstring) — and since the blocking
    inequality only strengthens with distance, the arc certifies *every*
    point beyond the window radius in those directions, not just the
    nearest.  A coincident neighbour has a degenerate Ψ− region and
    covers nothing.  ``r_floor`` (a tiny length on the dataset's
    coordinate scale) keeps the certificate's absolute margin above IEEE
    noise for near-coincident neighbours.

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


def cone_cover(
    qx: np.ndarray,
    qy: np.ndarray,
    nx: np.ndarray,
    ny: np.ndarray,
    ndist: np.ndarray,
    r_floor: float,
) -> np.ndarray:
    """The angular-coverage stopping certificate, per probe.

    Returns a boolean ``(B,)`` array: True when the union of the
    neighbour cones (:func:`cover_arcs`) covers the full circle of
    directions, i.e. no point beyond the window can form a pair with
    the probe.
    """
    start_sorted, end_cummax, any_valid = cover_arcs(
        qx, qy, nx, ny, ndist, r_floor
    )
    no_gap = np.all(end_cummax[:, :-1] >= start_sorted[:, 1:], axis=1)
    wraps = end_cummax[:, -1] >= start_sorted[:, 0] + 2.0 * np.pi
    return any_valid & no_gap & wraps


def _arcs_contain(
    start_sorted: np.ndarray, end_cummax: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Membership of directions in one probe's covered arc union.

    ``start_sorted``/``end_cummax`` are a single row of
    :func:`cover_arcs`; ``theta`` is a ``(M,)`` array of directions in
    ``[-π, π]``.  Checks the direction and its ``± 2π`` images against
    the sorted arc structure by binary search.
    """
    covered = np.zeros(theta.shape, dtype=bool)
    for shift in (0.0, 2.0 * np.pi, -2.0 * np.pi):
        t = theta + shift
        j = np.searchsorted(start_sorted, t, side="right") - 1
        inside = j >= 0
        covered |= inside & (end_cummax[np.maximum(j, 0)] >= t)
    return covered


def _emit_window(
    qx: np.ndarray,
    qy: np.ndarray,
    ndist: np.ndarray,
    nidx: np.ndarray,
    parr: PointArray,
    probes: np.ndarray,
    r_floor: float,
    out_q: list[np.ndarray],
    out_p: list[np.ndarray],
) -> np.ndarray:
    """Prune one window batch, emit its candidates, return uncovered probes."""
    nx = parr.x[nidx]
    ny = parr.y[nidx]
    with stage_timer("prune"):
        pruned = halfplane_prune_window(qx, qy, nx, ny)
    rows, cols = np.nonzero(~pruned)
    out_q.append(probes[rows])
    out_p.append(nidx[rows, cols].astype(np.int64))
    if nidx.shape[1] >= len(parr):
        return probes[:0]  # the window is all of P; nothing lies beyond
    with stage_timer("prune"):
        covered = cone_cover(qx, qy, nx, ny, ndist, r_floor)
    return probes[~covered]


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
    with ``p`` from ``parr`` and ``q`` from ``qarr`` (blockers drawn
    from ``parr`` only; final ring verification against the full union
    is :func:`verify_rings_batch`'s job).  Duplicates are already
    removed.

    Three stages, each handling only the probes the previous one could
    not certify: a ``k0``-neighbour window for every probe, a widened
    ``_WIDE_K`` window for probes whose cones left a gap (typical for
    probes near the fringe of ``P``), and a full direction-filtered
    scan for the rest (hull probes, heavily degenerate inputs).

    Parameters
    ----------
    parr, qarr:
        The inner (candidate) and outer (probe) pointsets.
    k0:
        First-stage neighbour window width (clamped to ``len(parr)``).
    tree_p:
        Optional prebuilt KD-tree over ``parr``'s coordinates.

    Under an active trace the ``candidate`` and ``prune`` wall times
    land in stage spans (:func:`repro.obs.trace.stage_timer`).
    """
    n_p, n_q = len(parr), len(qarr)
    if n_p == 0 or n_q == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64))
    if tree_p is None:
        with stage_timer("candidate"):
            tree_p = cKDTree(parr.coords())

    r_floor = 1e-12 * _coord_scale(parr.x, parr.y, qarr.x, qarr.y)

    out_q: list[np.ndarray] = []
    out_p: list[np.ndarray] = []

    # -- stage 1: k0 window for every probe ----------------------------
    k1 = min(k0, n_p)
    open_probes: list[np.ndarray] = []
    for bstart in range(0, n_q, _Q_BLOCK):
        probes = np.arange(bstart, min(bstart + _Q_BLOCK, n_q), dtype=np.int64)
        qx, qy = qarr.x[probes], qarr.y[probes]
        with stage_timer("candidate"):
            ndist, nidx = _query_window(tree_p, qx, qy, k1)
        open_probes.append(
            _emit_window(
                qx, qy, ndist, nidx, parr, probes, r_floor, out_q, out_p
            )
        )
    uncovered = np.concatenate(open_probes)

    # -- stage 2: widened window for uncovered probes ------------------
    k2 = min(_WIDE_K, n_p)
    if uncovered.size and k2 > k1:
        open_probes = []
        for bstart in range(0, uncovered.size, _WIDE_BLOCK):
            probes = uncovered[bstart : bstart + _WIDE_BLOCK]
            qx, qy = qarr.x[probes], qarr.y[probes]
            with stage_timer("candidate"):
                ndist, nidx = _query_window(tree_p, qx, qy, k2)
            open_probes.append(
                _emit_window(
                    qx, qy, ndist, nidx, parr, probes, r_floor, out_q, out_p
                )
            )
        uncovered = np.concatenate(open_probes)

    # -- stage 3: the remainder (hull probes, degenerate inputs) -------
    # Charged wholesale to "candidate": the escalation stages interleave
    # their own pruning with enumeration too finely to split honestly.
    if uncovered.size and k2 < n_p:
        with stage_timer("candidate"):
            emitted = None
            if uncovered.size * n_p > _SCAN_WORK_LIMIT:
                emitted = _delaunay_candidates(parr, qarr, uncovered)
            if emitted is not None:
                out_q.append(emitted[0])
                out_p.append(emitted[1])
            else:
                _scan_candidates(
                    parr, qarr, uncovered, tree_p, k2, r_floor, out_q, out_p
                )

    q_idx = np.concatenate(out_q)
    p_idx = np.concatenate(out_p)
    # Union of the window and escalation sources, deduplicated.
    key = q_idx * np.int64(n_p) + p_idx
    _, first = np.unique(key, return_index=True)
    return q_idx[first], p_idx[first]


def _scan_candidates(
    parr: PointArray,
    qarr: PointArray,
    probes: np.ndarray,
    tree_p: cKDTree,
    k: int,
    r_floor: float,
    out_q: list[np.ndarray],
    out_p: list[np.ndarray],
) -> None:
    """Direction-filtered full scan for probes without a coverage
    certificate.

    Per probe: every ``P`` point beyond the window whose direction falls
    in a covered arc is certified blocked; the uncovered residue is
    pruned with the exact half-plane predicate against the probe's
    nearest neighbours, and survivors are emitted as candidates.
    """
    px_all, py_all = parr.x, parr.y
    k_pr = min(_SCAN_PRUNERS, len(parr))
    ndist, nidx = _query_window(tree_p, qarr.x[probes], qarr.y[probes], k)
    starts, ends, any_valid = cover_arcs(
        qarr.x[probes],
        qarr.y[probes],
        px_all[nidx],
        py_all[nidx],
        ndist,
        r_floor,
    )
    for row, probe in enumerate(probes):
        qx = qarr.x[probe]
        qy = qarr.y[probe]
        dx = px_all - qx
        dy = py_all - qy
        d2 = dx * dx + dy * dy
        # Slightly deflated window radius: over-including points that
        # tie with (or round against) the k-th neighbour is safe —
        # duplicates are unioned away by the caller.
        far = np.nonzero(d2 >= ndist[row, -1] ** 2 * (1.0 - 1e-9))[0]
        if far.size == 0:
            continue
        if any_valid[row]:
            # Rows without a single valid cone carry only zero-width
            # placeholder arcs, which certify nothing: skip the arc
            # filter and let the exact half-plane test see every point.
            theta = np.arctan2(dy[far], dx[far])
            far = far[~_arcs_contain(starts[row], ends[row], theta)]
        if far.size == 0:
            continue
        loose_pruned = halfplane_prune_pairs(
            px_all[far],
            py_all[far],
            np.broadcast_to(px_all[nidx[row, :k_pr]], (far.size, k_pr)),
            np.broadcast_to(py_all[nidx[row, :k_pr]], (far.size, k_pr)),
            np.full(far.size, qx),
            np.full(far.size, qy),
        )
        keep = far[~loose_pruned]
        out_q.append(np.full(keep.size, probe, dtype=np.int64))
        out_p.append(keep.astype(np.int64))


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
    parr: PointArray, qarr: PointArray, probes: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Candidate superset for escalated probes via a Delaunay backstop.

    A true pair's ring is empty over the full union, hence empty over
    the sub-union of ``P`` and the escalated probes — so the pair is a
    Gabriel edge of that site set and (up to cocircular degeneracies,
    recovered from equal-circumcircle clusters exactly as
    :func:`repro.core.gabriel.gabriel_rcj` does) a Delaunay edge of it.
    Coincident P/Q sites, whose radius-zero ring is trivially empty, are
    emitted directly.  The returned ``(q_index, p_index)`` arrays are a
    superset of the escalated probes' true pairs; false candidates are
    eliminated by the exact batch verification.

    Returns ``None`` when the triangulation cannot be trusted
    (:func:`repro.core.gabriel.checked_delaunay`) — the caller falls
    back to the exact scan.
    """
    n_p = len(parr)
    coords = np.concatenate(
        (
            np.column_stack((parr.x, parr.y)),
            np.column_stack((qarr.x[probes], qarr.y[probes])),
        )
    )
    sites, inv = np.unique(coords, axis=0, return_inverse=True)
    inv = inv.ravel()
    n_sites = len(sites)
    tri = checked_delaunay(sites)
    if tri is None:
        return None

    simp = tri.simplices
    edges = np.concatenate(
        (simp[:, (0, 1)], simp[:, (0, 2)], simp[:, (1, 2)])
    ).astype(np.int64)
    edges.sort(axis=1)
    edges = np.unique(edges, axis=0)

    extra = _cocircular_site_pairs(sites, tri)
    if len(extra):
        edges = np.unique(np.concatenate((edges, extra)), axis=0)

    # CSR membership: which P rows / probe rows live at each site.
    member_site = inv  # site of every input row (P rows then probe rows)
    p_order = np.argsort(member_site[:n_p], kind="stable")
    p_flat = p_order.astype(np.int64)
    p_off = np.zeros(n_sites + 1, dtype=np.int64)
    np.cumsum(np.bincount(member_site[:n_p], minlength=n_sites), out=p_off[1:])
    q_order = np.argsort(member_site[n_p:], kind="stable")
    q_flat = probes[q_order].astype(np.int64)
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
    return np.concatenate(out_q), np.concatenate(out_p)


def _cocircular_site_pairs(sites: np.ndarray, tri: Delaunay) -> np.ndarray:
    """Extra site pairs hidden inside cocircular Delaunay faces.

    Vectorized version of
    :func:`repro.core.gabriel._cocircular_cluster_pairs`: when four or
    more sites lie on one empty circle, the triangulation keeps only
    some of their pairwise diametral edges, so each such cluster must be
    recovered from triangle circumcircles.  A cocircular face is carved
    into two or more *adjacent* simplices sharing one circumcircle, so
    all circumcircles are computed in one vectorized pass and only
    simplices whose circumcircle coincides with a neighbour's (a loose
    tolerance — false flags are filtered by the exact on-circle test,
    and false candidate pairs by verification) are probed with a ball
    query and per-cluster Python.  On general-position data nothing is
    flagged and the whole pass is three comparisons per simplex.
    """
    simplices = tri.simplices
    pa = sites[simplices[:, 0]]
    pb = sites[simplices[:, 1]]
    pc = sites[simplices[:, 2]]
    d = 2.0 * (
        pa[:, 0] * (pb[:, 1] - pc[:, 1])
        + pb[:, 0] * (pc[:, 1] - pa[:, 1])
        + pc[:, 0] * (pa[:, 1] - pb[:, 1])
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        sq_a = pa[:, 0] ** 2 + pa[:, 1] ** 2
        sq_b = pb[:, 0] ** 2 + pb[:, 1] ** 2
        sq_c = pc[:, 0] ** 2 + pc[:, 1] ** 2
        ux = (
            sq_a * (pb[:, 1] - pc[:, 1])
            + sq_b * (pc[:, 1] - pa[:, 1])
            + sq_c * (pa[:, 1] - pb[:, 1])
        ) / d
        uy = (
            sq_a * (pc[:, 0] - pb[:, 0])
            + sq_b * (pa[:, 0] - pc[:, 0])
            + sq_c * (pb[:, 0] - pa[:, 0])
        ) / d
    radius = np.hypot(pa[:, 0] - ux, pa[:, 1] - uy)
    kdtree = cKDTree(sites)
    finite = (
        (d != 0.0)
        & np.isfinite(ux)
        & np.isfinite(uy)
        & (radius <= recoverable_radius_bound(kdtree))
    )

    # Flag simplices sharing a circumcircle with a Delaunay neighbour.
    flag_tol = 1e-6 * (radius + 1.0)
    flagged = np.zeros(len(simplices), dtype=bool)
    neighbors = tri.neighbors
    for slot in range(3):
        j = neighbors[:, slot]
        j_safe = np.maximum(j, 0)
        close = (
            (j >= 0)
            & finite
            & finite[j_safe]
            & (np.abs(ux - ux[j_safe]) <= flag_tol)
            & (np.abs(uy - uy[j_safe]) <= flag_tol)
            & (np.abs(radius - radius[j_safe]) <= flag_tol)
        )
        flagged |= close
    probe = np.nonzero(flagged)[0]
    if probe.size == 0:
        return np.empty((0, 2), dtype=np.int64)

    extra = recover_cocircular_pairs(
        sites, kdtree, ux[probe], uy[probe], radius[probe]
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
    k0: int = DEFAULT_K0,
    exclude_same_oid: bool = False,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The full vectorized RCJ over columnar inputs.

    Runs the bulk RCJ pipeline
    (:func:`repro.engine.families.rcj_pipeline`: kNN-window candidates
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
    result = rcj_pipeline(k0=k0, exclude_same_oid=exclude_same_oid).run(ctx)
    return result.p_idx, result.q_idx, int(ctx.counters.get("candidates", 0))
