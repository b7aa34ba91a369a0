"""Figure 12 — resemblance of the kNN join to RCJ, vs k.

Paper's finding: same trade-off as Figures 10/11 — the kNN join's
parameter k cannot be tuned to reproduce the RCJ result, because RCJ
pairs are not defined by nearest-neighbour ranks (a far pair in a
sparse region joins while a near pair with a blocker does not).
"""

from repro.core.gabriel import gabriel_rcj
from repro.datasets.real import join_combination
from repro.engine.planner import run_join
from repro.evaluation.report import format_series
from repro.evaluation.resemblance import precision_recall

from benchmarks.conftest import emit

K_MAX = 10  # the paper sweeps k in 1..10


def _sweep(combo: str, scale_factor: int, engine: str):
    points_q, points_p = join_combination(combo, scale=scale_factor)
    rcj_keys = {r.key() for r in gabriel_rcj(points_p, points_q)}
    precisions, recalls = [], []
    for k in range(1, K_MAX + 1):
        knn_keys = run_join(
            points_p, points_q, family="knn", engine=engine, k=k
        ).pair_keys()
        if engine != "pointwise" and k == K_MAX:
            oracle = run_join(
                points_p, points_q, family="knn", engine="pointwise", k=k
            ).pair_keys()
            assert knn_keys == oracle
        prec, rec = precision_recall(knn_keys, rcj_keys)
        precisions.append(prec)
        recalls.append(rec)
    return precisions, recalls


def test_fig12_knn_resemblance(benchmark, scale, family_engine):
    outputs = benchmark.pedantic(
        lambda: {
            c: _sweep(c, scale.scale, family_engine) for c in ("SP", "LP")
        },
        rounds=1,
        iterations=1,
    )
    for combo, (precisions, recalls) in outputs.items():
        table = format_series(
            "k",
            list(range(1, K_MAX + 1)),
            {
                "precision%": [f"{v:.1f}" for v in precisions],
                "recall%": [f"{v:.1f}" for v in recalls],
            },
            title=f"Figure 12({combo}): kNN join vs RCJ",
        )
        emit(f"fig12_{combo}", table)
        # Precision falls and recall rises with k; never both high.
        assert precisions[0] > precisions[-1]
        assert recalls[0] < recalls[-1]
        assert not any(
            p > 90 and r > 90 for p, r in zip(precisions, recalls)
        )
        for a, b in zip(precisions, precisions[1:]):
            assert b <= a + 1.0
        for a, b in zip(recalls, recalls[1:]):
            assert b >= a - 1.0
