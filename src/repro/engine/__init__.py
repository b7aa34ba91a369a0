"""Vectorized batch execution engine for the RCJ.

The engine subsystem is the columnar counterpart of the object-at-a-time
algorithms in :mod:`repro.core`:

- :mod:`repro.engine.arrays` — :class:`PointArray`, a numpy columnar
  representation of a pointset with converters to and from
  :class:`~repro.geometry.point.Point` lists;
- :mod:`repro.engine.kernels` — the vectorized batch kernels of the RCJ
  hot path (KD-tree candidate generation, blocked Ψ−half-plane pruning,
  batch ring-emptiness verification) and the CIJ's batched convex SAT
  test;
- :mod:`repro.engine.operators` — the operator algebra the kernels
  factor into: columnar candidate sources, filter/verify stages and
  sinks, chained by :class:`~repro.engine.operators.Pipeline`, whose
  ``run`` is the engine's one columnar executor;
- :mod:`repro.engine.families` — every join declared as such a
  pipeline: the bulk RCJ, the top-k RCJ and the paper's other join
  families (ε-join, kNN-join, k-closest-pairs, common influence),
  behind ``run_join(family=...)``, with the pointwise implementations
  in :mod:`repro.joins` kept as reference oracles;
- :mod:`repro.engine.request` — :class:`JoinRequest`, the one
  validated request shape (family, ``k``, ``eps``, self-join mode,
  worker and memory budgets) every front door and planner name builds;
- :mod:`repro.engine.planner` — :func:`run_join`, the one front door
  for every join: the RCJ's algorithms (``inj``, ``bij``, ``obj``,
  ``brute``, ``gabriel`` and the vectorized ``array`` /
  ``array-parallel`` engines, which run the bulk RCJ pipeline), the
  top-k RCJ (``k=``; also :func:`run_topk`) and every other family
  (``family=``), all on one executor that returns the ordinary
  :class:`~repro.core.pairs.JoinReport`; :func:`make_dynamic` builds
  the shared dynamic backend;
- :mod:`repro.engine.streaming` — the canonical ascending-diameter
  order (:func:`sort_pairs_by_diameter`) and :class:`DynamicArrayRCJ`
  (incremental maintenance with batched kernels).

The ``array`` engine produces results identical to the pointwise
algorithms (the kernels evaluate the exact same IEEE dot-product
predicates), so all accounting, evaluation and resemblance tooling keeps
working unchanged on its reports.
"""

from repro.engine.arrays import NonFiniteCoordinateError, PointArray
from repro.engine.families import build_family_pipeline, explain_family
from repro.engine.operators import JoinContext, Pipeline
from repro.engine.planner import (
    ALGORITHM_NAMES,
    ENGINE_NAMES,
    TOPK_ENGINE_NAMES,
    make_dynamic,
    run_join,
    run_topk,
)
from repro.engine.request import FAMILY_NAMES, JoinRequest
from repro.engine.streaming import DynamicArrayRCJ, sort_pairs_by_diameter

__all__ = [
    "ALGORITHM_NAMES",
    "ENGINE_NAMES",
    "FAMILY_NAMES",
    "TOPK_ENGINE_NAMES",
    "DynamicArrayRCJ",
    "JoinContext",
    "JoinRequest",
    "NonFiniteCoordinateError",
    "Pipeline",
    "PointArray",
    "build_family_pipeline",
    "explain_family",
    "make_dynamic",
    "run_join",
    "run_topk",
    "sort_pairs_by_diameter",
]
