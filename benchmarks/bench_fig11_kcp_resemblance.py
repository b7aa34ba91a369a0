"""Figure 11 — resemblance of the k-closest-pairs join to RCJ, vs k.

Paper's finding: the trend follows Figure 10 — growing k trades
precision for recall and no k matches the RCJ result.  (Note RCJ pairs
are *not* the globally closest pairs: pairs in sparse regions have
large circles yet join, so even k = |RCJ| misses many.)
"""

from repro.core.gabriel import gabriel_rcj
from repro.datasets.real import join_combination
from repro.engine.planner import run_join
from repro.evaluation.report import format_series
from repro.evaluation.resemblance import precision_recall

from benchmarks.conftest import emit


def _sweep(combo: str, scale_factor: int, engine: str):
    points_q, points_p = join_combination(combo, scale=scale_factor)
    rcj_keys = {r.key() for r in gabriel_rcj(points_p, points_q)}
    n_result = len(rcj_keys)
    # k as fractions of the RCJ result size (the paper sweeps k up to
    # the order of the result cardinality).
    fractions = [0.1, 0.25, 0.5, 1.0, 1.5, 2.0]
    k_values = [max(1, int(n_result * f)) for f in fractions]
    k_max = max(k_values)

    # One k_max run covers the whole sweep: the result is canonically
    # ordered by (distance, p.oid, q.oid), so the answer for any
    # smaller k is its prefix.
    report = run_join(
        points_p, points_q, family="kcp", engine=engine, k=k_max
    )
    pairs_in_order = [pair.key() for pair in report.pairs]
    if engine != "pointwise":
        oracle = run_join(
            points_p, points_q, family="kcp", engine="pointwise", k=k_max
        )
        assert pairs_in_order == [pair.key() for pair in oracle.pairs]

    precisions, recalls = [], []
    for k in k_values:
        kcp_keys = set(pairs_in_order[:k])
        prec, rec = precision_recall(kcp_keys, rcj_keys)
        precisions.append(prec)
        recalls.append(rec)
    return fractions, k_values, precisions, recalls


def test_fig11_kcp_resemblance(benchmark, scale, family_engine):
    outputs = benchmark.pedantic(
        lambda: {
            c: _sweep(c, scale.scale, family_engine) for c in ("SP", "LP")
        },
        rounds=1,
        iterations=1,
    )
    for combo, (fractions, k_values, precisions, recalls) in outputs.items():
        table = format_series(
            "k/|RCJ|",
            [f"{f} (k={k})" for f, k in zip(fractions, k_values)],
            {
                "precision%": [f"{v:.1f}" for v in precisions],
                "recall%": [f"{v:.1f}" for v in recalls],
            },
            title=f"Figure 11({combo}): k-closest-pairs vs RCJ",
        )
        emit(f"fig11_{combo}", table)
        # Recall grows with k; precision decays once k passes the
        # high-confidence prefix.
        assert recalls[0] < recalls[-1]
        assert precisions[-1] < precisions[0] + 1.0
        assert not any(
            p > 90 and r > 90 for p, r in zip(precisions, recalls)
        )
