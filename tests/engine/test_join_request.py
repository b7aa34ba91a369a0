"""The one join request every front door builds.

``run_join``, ``run_topk`` and the planner's
``choose_*`` names validate their parameters through
:class:`repro.engine.request.JoinRequest`, so a request is accepted or
rejected — with the same message — whichever name it arrives by, and
every report leaves the one executor with the same accounting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.fixtures import uniform_pair
from repro.engine import ALGORITHM_NAMES, run_join, run_topk
from repro.engine.request import FAMILY_NAMES, JoinRequest
from repro.parallel.costmodel import (
    choose_family_plan,
    choose_plan,
    choose_topk_plan,
)


@pytest.fixture(scope="module")
def points():
    return uniform_pair(300, 300, seed=1)


class TestRequestValue:
    def test_defaults_are_the_bulk_rcj(self):
        request = JoinRequest()
        assert (request.family, request.kind) == ("rcj", "join")
        assert JoinRequest(k=3).kind == "topk"
        assert JoinRequest("knn", k=3).kind == "family"

    def test_frozen(self):
        with pytest.raises(Exception):
            JoinRequest().k = 3

    def test_unknown_family_lists_every_family(self):
        with pytest.raises(ValueError, match="unknown join family") as exc:
            JoinRequest("voronoi")
        for name in FAMILY_NAMES:
            assert name in str(exc.value)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"family": "epsilon"}, "requires eps"),
            ({"family": "knn"}, "requires k"),
            ({"family": "kcp"}, "requires k"),
            ({"family": "cij", "k": 3}, "takes no k"),
            ({"family": "epsilon", "eps": 1.0, "k": 3}, "takes no k"),
            ({"family": "knn", "k": 3, "eps": 1.0}, "eps applies"),
            ({"eps": 1.0}, "eps applies"),
            ({"family": "knn", "k": 3, "exclude_same_oid": True},
             "exclude_same_oid"),
        ],
    )
    def test_parameters_that_do_not_fit_the_family(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            JoinRequest(**kwargs)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "3", np.float64(3.0)])
    def test_non_integer_k_rejected_naming_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            JoinRequest(k=k)

    def test_numpy_integer_k_accepted(self):
        assert JoinRequest("knn", k=np.int64(3)).k == 3


class TestNonIntegerK:
    """A fractional ``k`` used to mean the whole join on the R-tree
    top-k route, ``int(k)`` pairs on the array route and a truncation
    on kcp; now every engine refuses it the same way."""

    @pytest.mark.parametrize("engine", ["array", "obj"])
    def test_topk_engines(self, points, engine):
        with pytest.raises(ValueError, match="k must be an integer"):
            run_topk(*points, 2.5, engine=engine)

    @pytest.mark.parametrize("family", ["knn", "kcp"])
    @pytest.mark.parametrize("k", [2.5, True])
    def test_k_families(self, points, family, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            run_join(*points, family=family, k=k, engine="array")

    def test_run_join_topk(self, points):
        with pytest.raises(ValueError, match="k must be an integer"):
            run_join(*points, engine="array", k=2.5)

    @pytest.mark.parametrize("engine", ["array", "obj"])
    def test_numpy_integer_k_runs_like_int(self, points, engine):
        want = run_topk(*points, 4, engine=engine).pair_keys()
        assert run_topk(*points, np.int64(4), engine=engine).pair_keys() == want

    def test_numpy_integer_k_for_families(self, points):
        for family in ("knn", "kcp"):
            want = run_join(*points, family=family, k=3, engine="array")
            got = run_join(
                *points, family=family, k=np.int32(3), engine="array"
            )
            assert got.pair_keys() == want.pair_keys()


class TestPlannerAndExecutorAgree:
    @pytest.mark.parametrize("eps", [-1.0, float("nan")])
    def test_bad_eps_same_message_everywhere(self, points, eps):
        messages = []
        for call in (
            lambda: choose_family_plan("epsilon", *points, eps=eps),
            lambda: run_join(*points, family="epsilon", eps=eps),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            messages.append(str(exc.value))
        assert len(set(messages)) == 1
        assert "eps must be a non-negative number" in messages[0]

    def test_zero_workers_same_message_everywhere(self, points):
        calls = (
            lambda: choose_plan(*points, workers=0),
            lambda: choose_family_plan("knn", *points, k=2, workers=0),
            lambda: choose_topk_plan(*points, 5, workers=0),
            lambda: run_join(*points, engine="array", workers=0),
            lambda: run_topk(*points, 5, engine="array", workers=0),
            lambda: run_join(*points, family="knn", k=2, workers=0),
        )
        for call in calls:
            with pytest.raises(ValueError, match="workers must be positive"):
                call()


#: Requests whose result is empty, one per route of the executor.
EMPTY_RESULTS = {
    "bulk-array": lambda pts: run_join([], pts[1], engine="array"),
    "bulk-parallel": lambda pts: run_join(
        [], pts[1], engine="array-parallel", workers=2
    ),
    "bulk-brute": lambda pts: run_join([], pts[1], algorithm="brute"),
    "bulk-obj": lambda pts: run_join(pts[0][:1], pts[1][:0]),
    "bulk-auto": lambda pts: run_join([], pts[1], engine="auto"),
    "topk-array-k0": lambda pts: run_topk(*pts, 0, engine="array"),
    "topk-obj-k0": lambda pts: run_topk(*pts, 0, engine="obj"),
    "kcp-array-k0": lambda pts: run_join(*pts, family="kcp", k=0, engine="array"),
    "knn-array-k0": lambda pts: run_join(
        *pts, family="knn", k=0, engine="array"
    ),
    "knn-auto-k0": lambda pts: run_join(*pts, family="knn", k=0),
    "kcp-pointwise-k0": lambda pts: run_join(
        *pts, family="kcp", k=0, engine="pointwise"
    ),
    "epsilon-array-empty": lambda pts: run_join(
        [], pts[1], family="epsilon", eps=5.0, engine="array"
    ),
}


@pytest.mark.parametrize("route", sorted(EMPTY_RESULTS))
def test_empty_results_report_like_every_other_run(points, route):
    report = EMPTY_RESULTS[route](points)
    assert report.pairs == []
    assert report.workers_used == 1
    assert report.trace is not None
    assert report.trace.counters.get("pairs") == 0
    assert report.trace.attrs.get("workers") == 1


@pytest.mark.parametrize("engine", ["array", "pointwise"])
def test_run_join_forwards_the_cij_clipping_region(engine):
    from repro.geometry.rect import Rect
    from repro.joins.common_influence import common_influence_join

    points_p, points_q = uniform_pair(60, 60, seed=3)
    # A region that clips the Voronoi cells: a different pair set than
    # the default bounds would give.
    bounds = Rect(2500.0, 2500.0, 7500.0, 7500.0)
    want = {
        (p.oid, q.oid)
        for p, q in common_influence_join(points_p, points_q, bounds=bounds)
    }
    got = run_join(
        points_p, points_q, family="cij", engine=engine, bounds=bounds
    )
    assert set(got.pair_keys()) == want
    default = run_join(points_p, points_q, family="cij", engine=engine)
    assert set(default.pair_keys()) != want


class TestFrontDoorContract:
    """Every front door is one call into the planner's executor: the
    RCJ's ``k`` is ordered browsing, the removed ``backend=`` /
    ``mode=`` keywords are refused, and every algorithm name gives the
    brute-force pair set through every door."""

    @pytest.mark.parametrize("engine", ["obj", "array"])
    def test_rcj_k_is_topk(self, points, engine):
        want = run_topk(*points, 5, engine=engine)
        got = run_join(*points, k=5, algorithm=engine)
        assert [p.key() for p in got.pairs] == [p.key() for p in want.pairs]
        assert got.algorithm == want.algorithm
        assert got.candidate_count == want.candidate_count

    @pytest.mark.parametrize(
        "removed", [{"backend": "rtree"}, {"mode": "topk"}]
    )
    def test_removed_keywords_raise_type_error(self, points, removed):
        with pytest.raises(TypeError, match=next(iter(removed))):
            run_join(*points, algorithm="brute", **removed)

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_algorithm_name_through_every_door(
        self, name, tmp_path, capsys
    ):
        from repro import ring_constrained_join, self_rcj
        from repro.cli import main
        from repro.datasets.io import save_points

        points_p, points_q = uniform_pair(90, 110, seed=4)
        want = run_join(points_p, points_q, algorithm="brute").pair_keys()
        assert run_join(points_p, points_q, algorithm=name).pair_keys() == want
        assert {
            pair.key() for pair in ring_constrained_join(
                points_p, points_q, method=name
            )
        } == want
        self_want = {pair.key() for pair in self_rcj(points_p, "brute")}
        assert {pair.key() for pair in self_rcj(points_p, name)} == self_want

        files = [str(tmp_path / "p.txt"), str(tmp_path / "q.txt")]
        save_points(points_p, files[0])
        save_points(points_q, files[1])
        capsys.readouterr()
        assert main(["join", *files, "--engine", name]) == 0
        printed = {
            tuple(map(int, line.split()[:2]))
            for line in capsys.readouterr().out.splitlines()
        }
        assert printed == want
