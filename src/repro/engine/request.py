"""One join request: the validated shape every front door builds.

:func:`repro.engine.planner.run_join` and
:func:`~repro.engine.planner.run_topk` — and the planner's ``choose_*``
names — all describe a join as the same six values, so they
are checked once, here, with one message per rule.  The top-k RCJ is the
``rcj`` family with a ``k``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

#: The join families every front door accepts.
FAMILY_NAMES = ("rcj", "epsilon", "knn", "kcp", "cij")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class JoinRequest:
    """What one join computes and under which budgets.

    ``family`` is one of :data:`FAMILY_NAMES`; ``k`` bounds the result
    (kNN, k-closest-pairs, and the top-k RCJ when ``family="rcj"``);
    ``eps`` is the ε-join radius; ``exclude_same_oid`` is the RCJ
    self-join mode; ``workers`` and ``budget_bytes`` bound the planner
    (``None``: every core /
    :func:`~repro.parallel.costmodel.memory_budget_bytes`).
    Construction raises ``ValueError`` for any request no engine can
    run.
    """

    family: str = "rcj"
    k: int | None = None
    eps: float | None = None
    exclude_same_oid: bool = False
    workers: int | None = None
    budget_bytes: int | None = None

    def __post_init__(self) -> None:
        family, k, eps = self.family, self.k, self.eps
        _require(
            family in FAMILY_NAMES,
            f"unknown join family {family!r}; expected one of {FAMILY_NAMES}",
        )
        _require(
            k is None
            or (isinstance(k, numbers.Integral) and not isinstance(k, bool)),
            f"k must be an integer, got {k!r}",
        )
        _require(
            eps is None or (isinstance(eps, numbers.Real) and eps >= 0),
            f"eps must be a non-negative number, got {eps!r}",
        )
        _require(
            self.workers is None or self.workers >= 1,
            f"workers must be positive, got {self.workers}",
        )
        if family == "epsilon":
            _require(
                eps is not None,
                "family='epsilon' requires eps (the distance threshold)",
            )
        else:
            _require(eps is None, "eps applies to family='epsilon' only")
        if family in ("knn", "kcp"):
            _require(
                k is not None,
                f"family={family!r} requires k (the result bound)",
            )
        elif family != "rcj":
            _require(k is None, f"family={family!r} takes no k")
        _require(
            not self.exclude_same_oid or family == "rcj",
            f"exclude_same_oid is not defined for family={family!r}",
        )

    @property
    def kind(self) -> str:
        """``"join"`` (the bulk RCJ), ``"topk"`` (the RCJ with ``k``) or
        ``"family"`` (every other family) — the calibration workload
        kind and the trace root of the run."""
        if self.family != "rcj":
            return "family"
        return "join" if self.k is None else "topk"

    @property
    def is_empty(self) -> bool:
        """A non-positive result bound: nothing to compute."""
        return self.k is not None and self.k <= 0
