"""Figure 10 — resemblance of the ε-range join to RCJ, vs ε.

Paper's finding: as ε grows, precision falls and recall rises; no ε
achieves both high precision and high recall, so RCJ cannot be emulated
by an ε-join.
"""

import math

from repro.core.gabriel import gabriel_rcj
from repro.datasets.real import join_combination
from repro.engine.planner import run_join
from repro.evaluation.report import format_series
from repro.evaluation.resemblance import precision_recall

from benchmarks.conftest import emit


def _mean_nn_distance(points) -> float:
    """Mean nearest-neighbour distance (density-normalised ε unit)."""
    from scipy.spatial import cKDTree
    import numpy as np

    arr = np.array([(p.x, p.y) for p in points])
    dists, _ = cKDTree(arr).query(arr, k=2)
    return float(dists[:, 1].mean())


def _sweep(combo: str, scale_factor: int, engine: str):
    points_q, points_p = join_combination(combo, scale=scale_factor)
    rcj_keys = {r.key() for r in gabriel_rcj(points_p, points_q)}
    # The paper sweeps ε in absolute units over the full-size datasets;
    # the equivalent density-normalised sweep uses the mean NN distance.
    unit = _mean_nn_distance(points_p + points_q)
    multipliers = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    precisions, recalls = [], []
    for m in multipliers:
        eps = unit * m
        eps_keys = run_join(
            points_p, points_q, family="epsilon", engine=engine, eps=eps
        ).pair_keys()
        if engine != "pointwise" and m == 1.0:
            oracle = run_join(
                points_p, points_q, family="epsilon", engine="pointwise",
                eps=eps,
            ).pair_keys()
            assert eps_keys == oracle
        prec, rec = precision_recall(eps_keys, rcj_keys)
        precisions.append(prec)
        recalls.append(rec)
    return multipliers, precisions, recalls, unit


def test_fig10_eps_resemblance(benchmark, scale, family_engine):
    outputs = benchmark.pedantic(
        lambda: {
            c: _sweep(c, scale.scale, family_engine) for c in ("SP", "LP")
        },
        rounds=1,
        iterations=1,
    )
    for combo, (multipliers, precisions, recalls, unit) in outputs.items():
        table = format_series(
            "eps/meanNN",
            multipliers,
            {
                "precision%": [f"{v:.1f}" for v in precisions],
                "recall%": [f"{v:.1f}" for v in recalls],
            },
            title=(
                f"Figure 10({combo}): eps-range join vs RCJ "
                f"(mean NN dist = {unit:.1f})"
            ),
        )
        emit(f"fig10_{combo}", table)
        # Shape: precision falls with eps, recall rises with eps.
        assert precisions[0] > precisions[-1]
        assert recalls[0] < recalls[-1]
        assert recalls[-1] > 90.0  # huge eps finds almost everything
        assert precisions[-1] < 30.0  # ...but drowns it in false pairs
        # No eps gives both high precision and high recall.
        assert not any(
            p > 90 and r > 90 for p, r in zip(precisions, recalls)
        )
        # The trends are monotone up to small noise.
        for a, b in zip(precisions, precisions[1:]):
            assert b <= a + 1.0
        for a, b in zip(recalls, recalls[1:]):
            assert b >= a - 1.0
