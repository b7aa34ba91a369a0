"""Cost-based execution planning for every join front door.

``engine="auto"`` on :func:`repro.engine.run_join` (any family) and
:func:`repro.engine.run_topk` asks the planner to pick the execution
strategy the way a database optimizer would — from data statistics and
a resource budget, not from a caller-supplied flag.  Each of them describes its join as one
:class:`~repro.engine.request.JoinRequest`, and :func:`plan_join` is
the one planner body:

- ``array-parallel`` — the sharded thread-pool engine
  (:mod:`repro.parallel.pool`), when the estimated probe volume is
  large enough to amortize the fan-out, more than one core is
  available and the family shards (the ε-join and the kNN join; not
  the RCJ, k-closest-pairs or the CIJ);
- ``array`` — the serial vectorized engine, when the join is too small
  for thread fan-out but fits in memory;
- ``obj`` (the RCJ) / ``pointwise`` (the other families) — the
  paper's best R-tree algorithm or the family's reference oracle, when
  the estimated in-memory working set exceeds the memory budget (the
  EMBANKS-style regime: stream through a bounded buffer rather than
  materialize columns and KD-trees).

The top-k RCJ keeps its own static rule (the band pipeline, unless
the working set overflows the budget), and so does the dynamic backend
choice (:func:`choose_dynamic_backend`); a fitted calibration profile
(:mod:`repro.calibration`) settles all of them by predicted seconds
through one comparison.  ``choose_plan``, ``choose_family_plan`` and
``choose_topk_plan`` are the historical names of :func:`plan_join`.

Estimates are first-order by design (this is plan *selection*, not
performance prediction): dataset sizes are exact, the candidate volume
is extrapolated from a deterministic KD-tree **density sample** (local
point density at sampled probe locations relative to a uniform spread —
clustered data verifies more candidates), and
memory is a per-structure byte model.  Every decision is recorded in
:attr:`ExecutionPlan.reasons`, surfaced by ``--explain`` on the CLI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from repro.engine.request import FAMILY_NAMES, JoinRequest

# The planner's serial floor IS the pool's in-process fallback
# threshold — one source of truth, so the two layers cannot drift.
from repro.parallel.pool import MIN_PARALLEL_PROBES, default_workers

#: Default in-memory working-set budget when neither the caller nor the
#: ``REPRO_MEMORY_BUDGET_MB`` environment variable says otherwise.
DEFAULT_BUDGET_BYTES = 1 << 30

#: Estimated candidate volume below which the thread pool costs more
#: than it saves.
MIN_PARALLEL_CANDIDATES = 64_000

#: P points retained for the density-sample KD-tree.
_SAMPLE_P = 2048

#: Q probes sampled against it.
_SAMPLE_Q = 256

#: Neighbours per sampled probe.
_SAMPLE_K = 8

#: Clamp on the density factor's influence over the candidate estimate.
_DENSITY_CLAMP = 4.0

#: Candidates per probe of the bulk RCJ's estimate at uniform density.
_RCJ_PER_PROBE = 16


def memory_budget_bytes() -> int:
    """The configured working-set budget (``REPRO_MEMORY_BUDGET_MB``
    overrides the 1 GiB default).

    The override is validated, not trusted: a zero/negative budget
    would silently route every join onto the slow obj/pointwise paths,
    and a typo would surface as a bare ``float()`` traceback nowhere
    near the variable that caused it.
    """
    override = os.environ.get("REPRO_MEMORY_BUDGET_MB")
    if override is None or not override.strip():
        return DEFAULT_BUDGET_BYTES
    try:
        megabytes = float(override)
    except ValueError:
        raise ValueError(
            f"REPRO_MEMORY_BUDGET_MB must be a number of MiB, "
            f"got {override!r}"
        ) from None
    if not np.isfinite(megabytes) or not megabytes > 0.0:
        raise ValueError(
            f"REPRO_MEMORY_BUDGET_MB must be a positive, finite number "
            f"of MiB, got {override!r} (a non-positive budget would "
            f"silently force every join onto the slow disk-backed path)"
        )
    return int(megabytes * (1 << 20))


def _sampled_coords(points, cap: int) -> tuple[int, np.ndarray, np.ndarray]:
    """``(n, xs, ys)`` with at most ``cap`` evenly strided samples.

    Accepts a :class:`~repro.engine.arrays.PointArray` (column
    attributes) or any sequence of objects with ``.x``/``.y``.
    """
    n = len(points)
    if n == 0:
        return 0, np.empty(0), np.empty(0)
    idx = np.unique(np.linspace(0, n - 1, min(cap, n)).astype(np.int64))
    if hasattr(points, "x"):  # PointArray: sample the columns directly
        return n, np.asarray(points.x)[idx], np.asarray(points.y)[idx]
    xs = np.fromiter((points[i].x for i in idx), np.float64, count=len(idx))
    ys = np.fromiter((points[i].y for i in idx), np.float64, count=len(idx))
    return n, xs, ys


def sample_density_factor(points_p, points_q) -> float:
    """Mean local ``P`` density at sampled ``Q`` probes, relative to a
    uniform spread of the same sample over its bounding box.

    ``1.0`` means the probes see uniform-like spacing; values above it
    mean probes sit in denser-than-uniform regions (clustered data),
    which inflates candidate and verification volumes.  Deterministic:
    samples are evenly strided, never random.
    """
    from scipy.spatial import cKDTree

    n_p, px, py = _sampled_coords(points_p, _SAMPLE_P)
    n_q, qx, qy = _sampled_coords(points_q, _SAMPLE_Q)
    if n_p == 0 or n_q == 0 or len(px) < 2:
        return 1.0
    area = (float(px.max()) - float(px.min())) * (
        float(py.max()) - float(py.min())
    )
    if not (area > 0.0 and np.isfinite(area)):
        return 1.0  # degenerate extent: no areal density to compare
    k = min(_SAMPLE_K, len(px))
    dist, _ = cKDTree(np.column_stack((px, py))).query(
        np.column_stack((qx, qy)), k=k
    )
    r_k = float(np.mean(dist if k == 1 else dist[:, -1]))
    # Uniform expectation of the k-th NN distance at density n/area.
    r_uniform = float(np.sqrt(k * area / (np.pi * len(px))))
    if r_k <= 0.0:  # duplicate-riddled probes: maximally dense
        return _DENSITY_CLAMP
    factor = (r_uniform / r_k) ** 2
    return float(np.clip(factor, 1.0 / _DENSITY_CLAMP, _DENSITY_CLAMP))


def estimate_candidates(n_p: int, n_q: int, density_factor: float) -> int:
    """First-order bulk-RCJ candidate volume: :data:`_RCJ_PER_PROBE`
    candidates per probe (at most ``n_p``), scaled by how much denser
    than uniform the probes' surroundings are."""
    per_probe = min(_RCJ_PER_PROBE, n_p) * min(
        max(density_factor, 1.0), _DENSITY_CLAMP
    )
    return int(n_q * per_probe)


def estimate_bytes(
    n_p: int, n_q: int, workers: int, est_candidates: int
) -> int:
    """Working-set model of the array engines.

    Shared columns (three 8-byte columns per side), per-worker KD-trees
    (~48 bytes/point for the tree over ``P`` plus the union tree and
    its coordinate copies), and the candidate index/verification
    buffers (three 8-byte arrays).  First-order, like every figure in
    this module, and conservative for the thread pool, whose shards
    share one tree.
    """
    columns = 24 * (n_p + n_q)
    per_worker = 48 * n_p + 64 * (n_p + n_q)
    return columns + max(workers, 1) * per_worker + 24 * est_candidates


def estimate_topk_candidates(
    k: int, density_factor: float, n_p: int, n_q: int
) -> int:
    """First-order candidate volume of a top-``k`` radius-band stream:
    bands overscan the requested results, denser-than-uniform probes
    enumerate proportionally more (shared by the kcp family plan, the
    top-k plan and the calibration sweep)."""
    return int(
        min(
            max(k, 1) * max(density_factor, 1.0) * _TOPK_OVERSCAN,
            float(n_p) * float(n_q),
        )
    )


@dataclass(frozen=True)
class ExecutionPlan:
    """The planner's decision plus everything it was based on."""

    engine: str  #: ``"array-parallel"`` | ``"array"`` | ``"obj"``
    workers: int  #: threads the engine will use (1 for serial plans)
    n_p: int
    n_q: int
    density_factor: float
    est_candidates: int
    est_bytes: int
    budget_bytes: int
    reasons: tuple[str, ...]
    #: Measured per-stage wall seconds of the execution this plan drove
    #: (``(("candidate", s), ("prune", s), ("verify", s))``), attached
    #: after the run via :meth:`with_measured`.  ``None`` until the join
    #: has actually executed, and for untraced runs (the stage times
    #: come from the trace).  Keeping the measurement next to the
    #: estimates is what makes the plan a calibration record: a fleet of
    #: archived plans relates ``est_candidates``/``est_bytes`` to real
    #: stage times, from which the model's first-order constants can be
    #: refit.
    measured: tuple[tuple[str, float], ...] | None = None
    #: Predicted wall seconds of the chosen plan under the loaded
    #: calibration profile (:mod:`repro.calibration`); ``None`` for
    #: decisions made by the static thresholds (no profile fitted, or
    #: no model for this decision) — which also keeps profile-less
    #: plans byte-identical to the uncalibrated planner's.
    predicted_seconds: float | None = None

    def with_measured(
        self, stage_seconds: dict[str, float]
    ) -> "ExecutionPlan":
        """A copy of this plan carrying measured per-stage wall times."""
        return replace(self, measured=tuple(sorted(stage_seconds.items())))

    @property
    def measured_seconds(self) -> dict[str, float]:
        """Measured per-stage wall times as a dict (empty before run)."""
        return dict(self.measured or ())

    def describe(self) -> str:
        """Human-readable explain block (the CLI's ``--explain``)."""
        lines = [
            f"plan: engine={self.engine} workers={self.workers}",
            f"  |P| = {self.n_p}, |Q| = {self.n_q}",
            f"  density factor   {self.density_factor:.2f}"
            " (local probe density vs uniform)",
            f"  est. candidates  {self.est_candidates}",
            f"  est. working set {self.est_bytes / (1 << 20):.1f} MiB"
            f" (budget {self.budget_bytes / (1 << 20):.1f} MiB)",
        ]
        if self.predicted_seconds is not None:
            lines.append(
                f"  predicted        {self.predicted_seconds:.3f}s"
                " (calibrated cost model)"
            )
        lines.extend(f"  - {reason}" for reason in self.reasons)
        if self.measured:
            stages = " ".join(f"{k}={v:.3f}s" for k, v in self.measured)
            lines.append(f"  measured: {stages}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# shared pieces: the budget, the profile, the calibrated comparison
# ----------------------------------------------------------------------

def _budget(budget_bytes: int | None) -> int:
    return memory_budget_bytes() if budget_bytes is None else budget_bytes


def _calibration_profile():
    """The fitted per-host profile, or None (missing, corrupt, or the
    calibration loop is disabled).  Failures never break planning."""
    try:
        from repro.calibration.profile import cached_profile

        return cached_profile()
    except Exception:
        return None


def _fastest_predicted(
    profile, workload: str, volume: int, required, optional=()
):
    """The plan shape the fitted profile predicts fastest.

    ``required`` and ``optional`` hold ``(engine, workers, est_bytes)``
    shapes; every required shape must have a fitted model (else
    ``None``: the caller keeps its static rules), optional shapes
    without one are skipped.  Ties go to the earlier, then the smaller,
    shape.  Returns ``((engine, workers, predicted_seconds, est_bytes),
    reasons)`` with the loaded constants and every prediction quoted in
    ``reasons``.
    """
    scored = []
    for engine, workers, est_bytes in required:
        seconds = profile.predict_seconds(workload, engine, workers, volume)
        if seconds is None:
            return None
        scored.append((engine, workers, seconds, est_bytes))
    for engine, workers, est_bytes in optional:
        seconds = profile.predict_seconds(workload, engine, workers, volume)
        if seconds is not None:
            scored.append((engine, workers, seconds, est_bytes))
    best = min(scored, key=lambda c: (c[2], c[1]))
    reasons = [
        f"calibrated profile {profile.host.get('key', '?')} "
        f"({profile.n_observations} obs): "
        + profile.constants_line(workload),
        "predicted "
        + ", ".join(
            engine
            + (f"@{workers}" if engine == "array-parallel" else "")
            + f"={seconds:.4f}s"
            for engine, workers, seconds, _b in scored
        )
        + f" -> {best[0]} is fastest",
    ]
    return best, reasons


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------

def _epsilon_candidates(
    points_p, points_q, n_p: int, n_q: int, eps: float, density: float
) -> int:
    """First-order ε-join candidate volume: per probe, the expected
    ``P`` population of an ε-disc at the sampled density."""
    _n, px, py = _sampled_coords(points_p, _SAMPLE_P)
    if len(px) < 2:
        return n_q * min(n_p, 1)
    area = (float(px.max()) - float(px.min())) * (
        float(py.max()) - float(py.min())
    )
    if not (area > 0.0 and np.isfinite(area)):
        return n_p * n_q  # degenerate extent: assume everything matches
    per_probe = n_p * np.pi * eps * eps / area * max(density, 1.0)
    return int(n_q * min(max(per_probe, 1.0), float(n_p)))


#: Families the planner knows how to plan — all of them.
PLANNED_FAMILY_NAMES = FAMILY_NAMES

#: What the pooled planner needs to know per family beyond its
#: candidate model (:func:`estimate_family_candidates`): the profile's
#: workload key, the engine that takes over when even a serial working
#: set overflows the memory budget, and — for families with no
#: probe-disjoint decomposition — why they never run on the pool.
_FAMILY_PLANS = {
    "rcj": ("join", "obj", "the triangulation is global"),
    "epsilon": ("family:epsilon", "pointwise", None),
    "knn": ("family:knn", "pointwise", None),
    "kcp": ("family:kcp", "pointwise", "band streaming is globally ordered"),
    "cij": (
        "family:cij",
        "pointwise",
        "each side's Voronoi cells are built whole, and the batched SAT"
        " verify is small next to them",
    ),
}

_OVERFLOW_ROUTES = {
    "obj": "stream through the R-tree/LRU-buffer backend",
    "pointwise": "run the pointwise reference path",
}


def _estimate(request, points_p, points_q, density: float):
    n_p, n_q = len(points_p), len(points_q)
    if request.family == "epsilon":
        return (
            _epsilon_candidates(
                points_p, points_q, n_p, n_q, float(request.eps), density
            ),
            n_q,
        )
    if request.family == "knn":
        return n_p * min(int(request.k), n_q), n_p
    if request.family == "kcp" or request.kind == "topk":
        return estimate_topk_candidates(int(request.k), density, n_p, n_q), n_q
    if request.family == "cij":
        # One cell per point, Delaunay-linear overlap volume.
        return 4 * (n_p + n_q), n_q
    return estimate_candidates(n_p, n_q, density), n_q


def estimate_family_candidates(
    family: str,
    points_p,
    points_q,
    *,
    eps: float | None = None,
    k: int | None = None,
    density: float | None = None,
) -> tuple[int, int]:
    """``(est_candidates, probe_volume)`` of one family request —
    the family-specific candidate-volume model shared by the planner
    and the calibration sweep."""
    request = JoinRequest(family, k=k, eps=eps)
    if density is None:
        density = sample_density_factor(points_p, points_q)
    return _estimate(request, points_p, points_q, density)


def plan_join(
    request: JoinRequest,
    points_p,
    points_q,
) -> ExecutionPlan:
    """Pick the execution engine for one join request.

    The one planner behind every ``engine="auto"`` run and every
    ``choose_*`` name.  The top-k RCJ (``family="rcj"`` with ``k``)
    takes its own static rules (:func:`_topk_plan`); every other
    request takes the pooled decision (:func:`_pooled_plan`).
    ``points_p``/``points_q`` may be
    :class:`~repro.engine.arrays.PointArray` or point sequences; only
    sizes and a strided coordinate sample are read.
    """
    n_p, n_q = len(points_p), len(points_q)
    budget = _budget(request.budget_bytes)
    requested = (
        default_workers() if request.workers is None else request.workers
    )
    if n_p == 0 or n_q == 0 or request.is_empty:
        return ExecutionPlan(
            "array", 1, n_p, n_q, 1.0, 0, 0, budget,
            ("empty request: nothing to plan",),
        )
    density = sample_density_factor(points_p, points_q)
    est_cand, probe_volume = _estimate(request, points_p, points_q, density)
    serial_mem = estimate_bytes(n_p, n_q, 1, est_cand)
    reasons: list[str] = []

    def decide(engine, workers=1, est_mem=serial_mem, predicted=None):
        return ExecutionPlan(
            engine, workers, n_p, n_q, density, est_cand, est_mem, budget,
            tuple(reasons), predicted_seconds=predicted,
        )

    if request.kind == "topk":
        return _topk_plan(
            request.k, n_p + n_q, serial_mem, budget, est_cand, reasons,
            decide,
        )
    return _pooled_plan(
        request.family, n_p, n_q, est_cand, probe_volume, serial_mem,
        budget, requested, reasons, decide,
    )


def _pooled_plan(
    family, n_p, n_q, est_cand, probe_volume, serial_mem, budget,
    requested, reasons, decide,
) -> ExecutionPlan:
    """``array-parallel`` / ``array`` / the overflow engine, from the
    candidate volume, the worker budget and the memory budget."""
    workload, overflow, serial_only = _FAMILY_PLANS[family]
    if serial_mem > budget:
        reasons.append(
            f"estimated working set {serial_mem} B exceeds the "
            f"{budget} B budget even serially: "
            + _OVERFLOW_ROUTES[overflow]
        )
        return decide(overflow)
    if serial_only is not None:
        reasons.append(f"{serial_only}: serial vectorized pipeline")
        return decide("array")
    if requested == 1:
        reasons.append("one worker requested: serial vectorized engine")
        return decide("array")

    # The profile is consulted only here: the overflow above is a
    # resource constraint, not a timing bet, and with one worker serial
    # is the only viable plan.
    profile = _calibration_profile()
    if profile is not None:
        # The pool runs in-process below MIN_PARALLEL_PROBES, so a
        # parallel "plan" there would execute serially anyway.
        pooled = []
        if probe_volume >= MIN_PARALLEL_PROBES:
            for workers in profile.parallel_worker_counts(workload):
                est_mem = estimate_bytes(n_p, n_q, workers, est_cand)
                if workers <= requested and est_mem <= budget:
                    pooled.append(("array-parallel", workers, est_mem))
        choice = _fastest_predicted(
            profile, workload, est_cand, [("array", 1, serial_mem)], pooled
        )
        if choice is not None:
            (engine, workers, predicted, est_mem), lines = choice
            reasons.extend(lines)
            return decide(engine, workers, est_mem, predicted)

    if probe_volume < MIN_PARALLEL_PROBES or est_cand < MIN_PARALLEL_CANDIDATES:
        reasons.append(
            f"probe volume too small to amortize a thread pool "
            f"({probe_volume} probes, est. candidates {est_cand})"
        )
        return decide("array")

    # Scale workers to the work: no point holding 16 threads on a
    # join whose candidate volume keeps two busy.
    by_work = max(2, est_cand // MIN_PARALLEL_CANDIDATES)
    chosen = min(requested, by_work)
    reasons.append(
        f"candidate volume supports {by_work} workers; "
        f"using {chosen} of {requested} requested"
    )
    # Per-worker structures cost memory: shed workers (never below 2)
    # until the working set fits the budget rather than abandoning
    # parallelism outright.
    while chosen > 2 and estimate_bytes(n_p, n_q, chosen, est_cand) > budget:
        chosen -= 1
    est_mem = estimate_bytes(n_p, n_q, chosen, est_cand)
    if est_mem > budget:
        reasons.append(
            f"even a 2-worker working set ({est_mem} B) exceeds the "
            f"{budget} B budget; serial fits"
        )
        return decide("array")
    if chosen < min(requested, by_work):
        reasons.append(
            f"shed workers to {chosen} to fit the {budget} B memory budget"
        )
    return decide("array-parallel", chosen, est_mem)


# ----------------------------------------------------------------------
# ordered browsing (top-k) rules
# ----------------------------------------------------------------------

#: How many candidate pairs a radius band is expected to enumerate per
#: requested result on uniform-like data (bands overshoot ``k`` so the
#: sorted emission is contiguous).
_TOPK_OVERSCAN = 4


def _topk_plan(
    k, n_points, serial_mem, budget, est_cand, reasons, decide,
) -> ExecutionPlan:
    """The streamed-array band pipeline or the R-tree heap: a working
    set beyond the budget forces the heap; a fitted profile compares
    the two; otherwise the band pipeline runs.  The heap loses at every
    ``k`` and size measured without a profile, prebuilt R-trees or not
    (``uniform_pair(..., seed=11)``, median of 3 on a 2-vCPU host:
    12 vs 0.9 ms at 200 x 250 and ``k=5``; 708 vs 12 ms over prebuilt
    4000 x 5000 R-trees at ``k=1``)."""
    if serial_mem > budget:
        reasons.append(
            f"estimated working set {serial_mem} B exceeds the {budget} B "
            "budget: enumerate lazily through the R-tree heap"
        )
        return decide("obj")

    profile = _calibration_profile()
    if profile is not None:
        choice = _fastest_predicted(
            profile,
            "topk",
            est_cand,
            [("array", 1, serial_mem), ("obj", 1, serial_mem)],
        )
        if choice is not None:
            (engine, _w, predicted, _b), lines = choice
            reasons.extend(lines)
            return decide(engine, predicted=predicted)

    reasons.append(
        f"k={k}, |P|+|Q|={n_points}: streamed radius bands amortize"
        " candidate generation and verification over whole batches"
    )
    return decide("array")


# ----------------------------------------------------------------------
# the historical planner names
# ----------------------------------------------------------------------

def choose_plan(
    points_p,
    points_q,
    workers: int | None = None,
    budget_bytes: int | None = None,
) -> ExecutionPlan:
    """The bulk RCJ's plan (:func:`plan_join` of ``family="rcj"``).

    The serial array engine (the triangulation is global, so the RCJ
    never plans ``array-parallel``), or the disk/buffer R-tree plan
    when the working set exceeds ``budget_bytes`` (default
    :func:`memory_budget_bytes`).  ``workers`` is validated with the
    request.
    """
    request = JoinRequest(workers=workers, budget_bytes=budget_bytes)
    return plan_join(request, points_p, points_q)


def choose_family_plan(
    family: str,
    points_p,
    points_q,
    eps: float | None = None,
    k: int | None = None,
    workers: int | None = None,
    budget_bytes: int | None = None,
) -> ExecutionPlan:
    """One join family's plan (:func:`plan_join`).

    The candidate-volume model is the family's: ``eps``-disc population
    per probe (ε-join), ``k`` per probe (kNN), band overscan
    (k-closest-pairs), near-linear cell counts (CIJ).  A working set
    beyond the memory budget selects the ``pointwise`` oracle;
    k-closest-pairs and the CIJ never plan ``array-parallel``.  Raises
    ``ValueError`` for an invalid request before any estimation runs.
    """
    request = JoinRequest(
        family, k=k, eps=eps, workers=workers, budget_bytes=budget_bytes
    )
    return plan_join(request, points_p, points_q)


def choose_topk_plan(
    points_p,
    points_q,
    k: int,
    workers: int | None = None,
    budget_bytes: int | None = None,
) -> ExecutionPlan:
    """The top-k RCJ's plan (:func:`plan_join` of ``family="rcj"`` with
    ``k``): the ``rcj`` family's band pipeline
    (:func:`repro.engine.families.build_family_pipeline`) or the R-tree
    incremental distance join (:func:`repro.core.topk.top_k_rcj`).

    The band pipeline runs unless the working set exceeds the memory
    budget, which forces the lazy R-tree route, or a fitted
    calibration profile predicts the heap faster.  Its KD-tree/column
    setup is linear but its per-band work is vectorized, so it beats
    the heap's per-pair Python even at ``k=1`` over prebuilt R-trees.
    """
    request = JoinRequest(k=k, workers=workers, budget_bytes=budget_bytes)
    return plan_join(request, points_p, points_q)


# ----------------------------------------------------------------------
# dynamic (incremental-maintenance) backend planning
# ----------------------------------------------------------------------

def choose_dynamic_backend(
    n_p: int,
    n_q: int,
    batch_size: int = 1,
    budget_bytes: int | None = None,
) -> tuple[str, str]:
    """``(backend, reason)`` for a dynamic RCJ deployment.

    The columnar backend (:class:`repro.engine.streaming.DynamicArrayRCJ`)
    answers each update with batched kernel work but keeps the whole
    pointset (columns plus KD-trees) resident; when that working set
    exceeds the memory budget the R*-tree backend
    (:class:`repro.core.dynamic.DynamicRCJ`) — whose structure *is* the
    disk-resident index — is the honest choice, regardless of timing.

    Within the budget the choice is a timing bet, and a fitted
    calibration profile settles it when it has per-batch models for
    *both* dynamic backends (``kind="dynamic"`` observations, recorded
    by planned instances): predicted seconds per batch of
    ``batch_size`` events, fastest wins.  Without a profile the static
    answer stands — the columnar backend, whose amortized ``apply_batch``
    is the measured fast path everywhere we have run it.
    """
    budget = _budget(budget_bytes)
    resident = estimate_bytes(n_p, n_q, 1, 0)
    if resident > budget:
        return (
            "obj",
            f"resident columns + KD-trees ({resident} B) exceed the "
            f"{budget} B budget: keep the R*-tree structure on disk",
        )
    batch = max(batch_size, 1)
    profile = _calibration_profile()
    if profile is not None:
        choice = _fastest_predicted(
            profile,
            "dynamic",
            batch,
            [("array", 1, resident), ("obj", 1, resident)],
        )
        if choice is not None:
            (backend, _w, _s, _b), lines = choice
            return backend, f"per batch of {batch} events: " + "; ".join(lines)
    return (
        "array",
        f"working set {resident} B fits the {budget} B budget: batched"
        " columnar kernels answer each update",
    )
