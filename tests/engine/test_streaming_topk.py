"""Cross-engine equivalence suite for the streamed top-k layer.

The contract under test: every ``run_topk`` route returns *the first k
entries of the canonically sorted full join* — same pairs, same order,
byte for byte.  The canonical order is
:func:`repro.engine.streaming.pair_order_key` (ascending squared pair
distance, ties by ``(p.oid, q.oid)``); distance ties cannot occur on
the random-float families, so the R-tree heap's arrival order agrees
with the canonical order there and all three engines are comparable
exactly.  Degenerate (tie-riddled) geometry is covered as identity
sets plus exact diameter multisets.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import TOPK_ROWS, build_workload, run_algorithm
from repro.datasets.fixtures import (
    clustered_pair,
    collinear_pair,
    duplicate_pair,
    single_point_pair,
    uniform_pair,
)
from repro.datasets.synthetic import uniform
from repro.core.pairs import RCJPair
from repro.geometry.point import Point
from repro.engine import operators, run_join, run_topk
from repro.engine.streaming import pair_order_key, sort_pairs_by_diameter
from repro.obs.trace import counter_totals

ENGINES = ("array", "obj", "auto")


def keys_in_order(pairs):
    return [pair_order_key(p) for p in pairs]


@pytest.fixture(scope="module")
def workload():
    points_p, points_q = uniform_pair(300, 340, seed=21)
    full = run_join(points_p, points_q, algorithm="gabriel")
    return points_p, points_q, sort_pairs_by_diameter(full.pairs)


class TestPrefixEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("k", (1, 10, None))
    def test_first_k_prefix_matches_sorted_full_join(
        self, workload, engine, k
    ):
        points_p, points_q, ref = workload
        k = len(ref) if k is None else k
        report = run_topk(points_p, points_q, k, engine=engine)
        assert keys_in_order(report.pairs) == keys_in_order(ref[:k])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_clustered_prefix(self, engine):
        points_p, points_q = clustered_pair(260, 280, seed=31)
        ref = sort_pairs_by_diameter(
            run_join(points_p, points_q, algorithm="gabriel").pairs
        )
        report = run_topk(points_p, points_q, 25, engine=engine)
        assert keys_in_order(report.pairs) == keys_in_order(ref[:25])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_point_prefix(self, engine):
        points_p, points_q = single_point_pair(seed=4)
        ref = sort_pairs_by_diameter(
            run_join(points_p, points_q, algorithm="brute").pairs
        )
        report = run_topk(points_p, points_q, 3, engine=engine)
        assert keys_in_order(report.pairs) == keys_in_order(ref[:3])

    @pytest.mark.parametrize(
        "family",
        (collinear_pair, duplicate_pair),
        ids=("collinear", "duplicates"),
    )
    def test_degenerate_families_full_enumeration(self, family):
        # Tie-riddled geometry: arrival order among exactly tied
        # diameters is not canonical on the R-tree heap, so the pinned
        # contract is identity + exact sorted diameters, per engine.
        points_p, points_q = family(40, 45, seed=7)
        ref = run_join(points_p, points_q, algorithm="brute")
        k = len(ref.pairs) + 5
        want_keys = ref.pair_keys()
        want_diams = sorted(pr.diameter for pr in ref.pairs)
        for engine in ENGINES:
            report = run_topk(points_p, points_q, k, engine=engine)
            assert report.pair_keys() == want_keys, engine
            got_diams = [pr.diameter for pr in report.pairs]
            assert got_diams == sorted(got_diams) == want_diams, engine

    def test_selfjoin_mode(self, workload):
        points_p, _, _ = workload
        full = run_join(
            points_p, points_p, algorithm="array", exclude_same_oid=True
        )
        ref = sort_pairs_by_diameter(full.pairs)
        report = run_topk(
            points_p, points_p, 15, engine="array", exclude_same_oid=True
        )
        assert keys_in_order(report.pairs) == keys_in_order(ref[:15])
        assert all(pr.p.oid != pr.q.oid for pr in report.pairs)
        # Self-joins tie every mirrored pair <a,b>/<b,a> at the exact
        # same distance, and the R-tree heap breaks ties by arrival —
        # so the obj route (and auto, which may plan it) is pinned
        # set-wise (same diameters, valid pairs), not byte-wise.
        for engine in ("obj", "auto"):
            report = run_topk(
                points_p, points_p, 15, engine=engine, exclude_same_oid=True
            )
            assert [pr.diameter for pr in report.pairs] == [
                pr.diameter for pr in ref[:15]
            ], engine
            assert report.pair_keys() <= full.pair_keys()
            assert all(pr.p.oid != pr.q.oid for pr in report.pairs)


class TestRunTopkApi:
    def test_k_nonpositive(self, workload):
        points_p, points_q, _ = workload
        for engine in ENGINES:
            assert run_topk(points_p, points_q, 0, engine=engine).pairs == []

    def test_k_exceeds_result(self, workload):
        points_p, points_q, ref = workload
        report = run_topk(points_p, points_q, len(ref) + 999, engine="array")
        assert len(report.pairs) == len(ref)

    def test_empty_inputs(self):
        points_p, _ = uniform_pair(10, 10, seed=1)
        for engine in ("array", "auto"):
            assert run_topk([], points_p, 5, engine=engine).pairs == []
            assert run_topk(points_p, [], 5, engine=engine).pairs == []

    def test_unknown_engine_rejected(self, workload):
        points_p, points_q, _ = workload
        with pytest.raises(ValueError, match="top-k engine"):
            run_topk(points_p, points_q, 5, engine="quantum")

    def test_engine_aliases(self, workload):
        points_p, points_q, ref = workload
        via_pw = run_topk(points_p, points_q, 5, engine="pointwise")
        via_par = run_topk(points_p, points_q, 5, engine="array-parallel")
        assert via_pw.algorithm == "TOPK-OBJ"
        assert via_par.algorithm == "TOPK-ARRAY"
        assert keys_in_order(via_pw.pairs) == keys_in_order(via_par.pairs)

    def test_run_join_k_routes_topk(self, workload):
        points_p, points_q, ref = workload
        report = run_join(points_p, points_q, engine="array", k=7)
        assert report.algorithm == "TOPK-ARRAY"
        assert keys_in_order(report.pairs) == keys_in_order(ref[:7])

    def test_auto_attaches_plan_with_measurements(self, workload):
        points_p, points_q, _ = workload
        report = run_topk(points_p, points_q, 200, engine="auto")
        assert report.plan is not None
        assert report.plan.engine in ("array", "obj")
        assert report.plan.reasons
        if report.plan.engine == "array":
            assert set(report.plan.measured_seconds) >= {"candidate"}

    def test_explicit_array_records_stage_seconds(self, workload):
        points_p, points_q, _ = workload
        report = run_topk(points_p, points_q, 10, engine="array")
        assert "candidate" in report.stage_seconds
        assert "verify" in report.stage_seconds
        assert all(v >= 0.0 for v in report.stage_seconds.values())

    def test_obj_route_reports_node_accesses(self, workload):
        points_p, points_q, _ = workload
        report = run_topk(points_p, points_q, 5, engine="obj")
        assert report.algorithm == "TOPK-OBJ"
        assert report.node_accesses > 0


class TestLaziness:
    def test_small_k_touches_a_fraction_of_the_join(self):
        points_p, points_q = uniform_pair(3000, 3000, seed=41)
        full = run_join(points_p, points_q, engine="array")
        small = run_topk(points_p, points_q, 10, engine="array")
        # The stream enumerates only the first radius bands: its
        # verified-candidate volume must be far under the bulk join's.
        assert small.candidate_count < full.candidate_count / 20

    def test_bands_are_sorted_and_resumable(self):
        # The whole join through the top-k pipeline: emitted in
        # canonical order, over several cursor-resumed bands, and
        # exactly the bulk join's pair set.
        points_p, points_q = uniform_pair(400, 400, seed=43)
        ref = run_join(points_p, points_q, engine="array")
        report = run_topk(points_p, points_q, len(ref.pairs), engine="array")
        assert keys_in_order(report.pairs) == sorted(
            keys_in_order(report.pairs)
        )
        assert counter_totals(report.trace)["bands"] >= 2
        assert report.pair_keys() == ref.pair_keys()


def _bands(report) -> int:
    return counter_totals(report.trace)["bands"]


class TestOverfullBandBisection:
    """A band predicted to hold more than ``operators._MAX_BAND_PAIRS``
    pairs is bisected toward the cursor; the results must not move."""

    @pytest.fixture
    def tiny_bands(self, monkeypatch):
        monkeypatch.setattr(operators, "_MAX_BAND_PAIRS", 50)

    def test_topk_equals_sorted_full_join(self, monkeypatch):
        points_p, points_q = uniform_pair(300, 300, seed=47)
        ref = sort_pairs_by_diameter(
            run_join(points_p, points_q, engine="array").pairs
        )
        whole = run_topk(points_p, points_q, 1000, engine="array")
        monkeypatch.setattr(operators, "_MAX_BAND_PAIRS", 50)
        split = run_topk(points_p, points_q, 1000, engine="array")
        assert _bands(split) > _bands(whole)  # the bisection ran
        for report in (whole, split):
            assert [pr.key() for pr in report.pairs] == [
                pr.key() for pr in ref
            ]
            assert keys_in_order(report.pairs) == keys_in_order(ref)

    @pytest.mark.usefixtures("tiny_bands")
    def test_kcp_equals_sorted_cross_product(self):
        points_p, points_q = uniform_pair(120, 130, seed=49)
        k = 400
        report = run_join(
            points_p, points_q, family="kcp", engine="array", k=k
        )
        ref = sort_pairs_by_diameter(
            [RCJPair(p, q) for p in points_p for q in points_q]
        )[:k]
        assert keys_in_order(report.pairs) == keys_in_order(ref)

    @pytest.mark.usefixtures("tiny_bands")
    def test_duplicate_riddled_start_radius(self):
        # Coincident P/Q points give a zero k-th NN distance; the
        # bands must still start, and find the radius-zero pairs
        # first, even with every band over-full.
        points_p, points_q = duplicate_pair(30, 30, seed=3, lattice=4)
        report = run_topk(points_p, points_q, 5, engine="array")
        assert len(report.pairs) == 5
        diams = [pr.diameter for pr in report.pairs]
        assert diams == sorted(diams)
        assert diams[0] == 0.0
        full = sort_pairs_by_diameter(
            run_join(points_p, points_q, algorithm="brute").pairs
        )
        deep = run_topk(points_p, points_q, len(full), engine="array")
        assert keys_in_order(deep.pairs) == keys_in_order(full)
        kcp = run_join(points_p, points_q, family="kcp", engine="array", k=60)
        cross = sort_pairs_by_diameter(
            [RCJPair(p, q) for p in points_p for q in points_q]
        )
        assert keys_in_order(kcp.pairs) == keys_in_order(cross[:60])


class TestTiedRuns:
    """Long runs of exactly tied distances, cut by the band source's
    canonical-order chunks: the ``k``-th pair may land anywhere inside
    a run, and the sink consumes only the chunks it needs."""

    @pytest.fixture(scope="class")
    def shared_spot(self):
        # 40 P x 49 Q points on one spot on a uniform background: 1960
        # pairs tie at diameter 0, and all are RCJ pairs (a zero-radius
        # ring holds no point strictly inside).
        spot = (5000.5, 5000.5)
        points_p = uniform(150, seed=61) + [
            Point(*spot, 1000 + i) for i in range(40)
        ]
        points_q = uniform(160, seed=62, start_oid=2000) + [
            Point(*spot, 3000 + i) for i in range(49)
        ]
        ref = sort_pairs_by_diameter(
            run_join(points_p, points_q, algorithm="gabriel").pairs
        )
        return points_p, points_q, ref

    @pytest.mark.parametrize("max_band", (None, 50), ids=("bands", "tiny"))
    @pytest.mark.parametrize("k", (1, 7, 100, 2000))
    def test_shared_spot_prefix_and_consumed_work(
        self, shared_spot, k, max_band, monkeypatch
    ):
        if max_band is not None:
            # Over-full bands bisect down to the unsplittable tied run,
            # so k=2000 has to open the bands beyond it.
            monkeypatch.setattr(operators, "_MAX_BAND_PAIRS", max_band)
        points_p, points_q, ref = shared_spot
        report = run_topk(points_p, points_q, k, engine="array")
        assert keys_in_order(report.pairs) == keys_in_order(ref[:k])
        totals = counter_totals(report.trace)
        assert totals["verified"] <= 3 * k
        if max_band is not None and k > 1960:
            assert totals["bands"] >= 2

    @pytest.mark.parametrize("max_band", (None, 50), ids=("bands", "tiny"))
    def test_kcp_cut_inside_a_tied_run(self, max_band, monkeypatch):
        if max_band is not None:
            monkeypatch.setattr(operators, "_MAX_BAND_PAIRS", max_band)
        points_p, points_q = duplicate_pair(60, 70, seed=5)
        cross = sort_pairs_by_diameter(
            [RCJPair(p, q) for p in points_p for q in points_q]
        )
        k = 150
        # Pairs 66..368 all tie at distance 1, so the k-th pair and its
        # successor tie, and the first chunk (k pairs) ends mid-run.
        assert cross[k - 1].diameter == cross[k].diameter
        report = run_join(
            points_p, points_q, family="kcp", engine="array", k=k
        )
        assert keys_in_order(report.pairs) == keys_in_order(cross[:k])

    def test_selfjoin_answer_spans_several_chunks(self, monkeypatch):
        points = uniform(300, seed=63)
        full = run_join(points, points, engine="array", exclude_same_oid=True)
        ref = sort_pairs_by_diameter(full.pairs)
        chunks = []
        collect = operators.TakeSmallest.collect

        def spy(sink, ctx, block):
            chunks.append(len(block))
            collect(sink, ctx, block)

        monkeypatch.setattr(operators.TakeSmallest, "collect", spy)
        k = 60
        report = run_topk(
            points, points, k, engine="array", exclude_same_oid=True
        )
        assert len([n for n in chunks if n]) >= 3
        assert keys_in_order(report.pairs) == keys_in_order(ref[:k])
        assert all(pr.p.oid != pr.q.oid for pr in report.pairs)

    def test_take_smallest_rejects_an_unordered_source(self):
        # Without the ordered-stream contract the first k pairs that
        # reach the sink are not the k smallest.
        with pytest.raises(ValueError, match="ordered source"):
            operators.Pipeline(
                operators.RangeSource(1.0), [], operators.TakeSmallest(3)
            )


class TestBenchRows:
    def test_topk_rows_agree_with_sorted_reference(self):
        points_p, points_q = uniform_pair(250, 260, seed=51)
        workload = build_workload(points_q, points_p)
        full = run_algorithm(workload, "ARRAY")
        want = keys_in_order(sort_pairs_by_diameter(full.pairs)[:12])
        for name in TOPK_ROWS:
            report = run_algorithm(workload, name, k=12)
            assert keys_in_order(report.pairs) == want, name

    def test_smoke_topk_passes(self, capsys):
        from repro.bench.runner import smoke

        assert smoke(n=600, workers=2, topk=True) == 0
        out = capsys.readouterr().out
        assert "TOPK-ARRAY" in out and "passed" in out
