"""Cross-algorithm equivalence: every engine, identical result sets.

The property the whole system hangs on: INJ, BIJ, OBJ (R-tree backend),
the brute-force oracle, the Gabriel comparator and the vectorized array
engine all compute the *same* RCJ — on well-behaved data and on every
degenerate family (clustered, collinear, duplicate-riddled,
single-point).  All engines run through the unified planner so the
dispatch layer is exercised too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import repro.engine.kernels as kernels
from repro.core.selfjoin import self_rcj
from repro.datasets.fixtures import equivalence_families, make_points
from repro.datasets.worstcase import collinear, split_alternating
from repro.engine import run_join
from tests.conftest import continuous_pointset, lattice_pointset

#: ``auto`` rides along: on suite-sized data the planner resolves it to
#: the serial array engine, pinning the planning dispatch itself; the
#: parallel engine and the planner's other branches get their own
#: coverage in test_parallel_equivalence.py.
ENGINES = ("inj", "bij", "obj", "brute", "gabriel", "array", "auto")

#: (family, seed) grid: every dataset family under a few seeds.
FAMILY_CASES = [
    (family, seed)
    for family in ("uniform", "clustered", "collinear", "duplicates", "single_point")
    for seed in (0, 1, 2)
]


def _keys(points_p, points_q, algorithm, **kwargs):
    return run_join(points_p, points_q, algorithm=algorithm, **kwargs).pair_keys()


class TestFamilyEquivalence:
    @pytest.mark.parametrize("family,seed", FAMILY_CASES)
    def test_all_engines_agree(self, family, seed):
        points_p, points_q = equivalence_families(seed=seed)[family]
        reference = _keys(points_p, points_q, "brute")
        for engine in ENGINES:
            assert _keys(points_p, points_q, engine) == reference, (
                f"{engine} diverges from brute on {family!r} seed {seed}"
            )

    @pytest.mark.parametrize("family,seed", FAMILY_CASES)
    def test_array_engine_selfjoin_agrees(self, family, seed):
        points_p, _ = equivalence_families(seed=seed)[family]
        reference = {p.key() for p in self_rcj(points_p, algorithm="brute")}
        got = {p.key() for p in self_rcj(points_p, algorithm="array")}
        assert got == reference, f"self-join diverges on {family!r} seed {seed}"


def _refuse_triangulation(monkeypatch):
    """Make every input one the triangulation refuses."""
    monkeypatch.setattr(kernels, "checked_delaunay", lambda sites: None)


class TestExactRoutes:
    """The array engine's exact per-probe scan: inputs the triangulation
    refuses, and sites Qhull leaves out of every simplex."""

    @pytest.mark.parametrize("family,seed", FAMILY_CASES)
    def test_refused_input_agrees(self, family, seed, monkeypatch):
        # Every probe takes the exact scan instead of the triangulation.
        _refuse_triangulation(monkeypatch)
        points_p, points_q = equivalence_families(seed=seed)[family]
        assert _keys(points_p, points_q, "array") == _keys(
            points_p, points_q, "brute"
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_one_point_windows_stay_complete(self, seed, monkeypatch):
        # A one-point window certifies little, so the scan's arc filter
        # and Ψ− pruning carry the whole load.
        from repro.core.brute import brute_force_rcj
        from repro.engine.arrays import PointArray

        _refuse_triangulation(monkeypatch)
        points_p, points_q = equivalence_families(seed=seed)["uniform"]
        parr = PointArray.from_points(points_p)
        qarr = PointArray.from_points(points_q)
        q_idx, p_idx = kernels.knn_candidate_blocks(parr, qarr, k0=1)
        candidates = {
            (int(parr.oid[p]), int(qarr.oid[q]))
            for q, p in zip(q_idx.tolist(), p_idx.tolist())
        }
        truth = {pair.key() for pair in brute_force_rcj(points_p, points_q)}
        assert truth <= candidates

    def test_coincident_cluster_larger_than_any_window(self):
        # Regression: more coincident P points than the scan's window
        # leaves the probe with zero valid coverage arcs; the scan must
        # not treat the placeholder arcs as certificates (it once
        # dropped the beyond-window duplicates' pairs).
        from repro.geometry.point import Point

        n = kernels.DEFAULT_K0 + 2
        points_p = [Point(100.0, 0.0, i) for i in range(n)]
        points_q = [Point(0.0, 0.0, n)]
        assert _keys(points_p, points_q, "array") == _keys(
            points_p, points_q, "brute"
        )

    def test_coincident_cluster_through_the_triangulation(self):
        from repro.geometry.point import Point

        n = kernels.DEFAULT_K0 + 2
        points_p = [Point(100.0, 0.0, i) for i in range(n)] + [
            Point(50.0, 3.0, n),
            Point(-40.0, -7.0, n + 1),
        ]
        points_q = [Point(0.0, 0.0, 500), Point(90.0, 1.0, 501)]
        assert _keys(points_p, points_q, "array") == _keys(
            points_p, points_q, "brute"
        )

    def test_near_flat_input_takes_the_exact_route(self):
        # Qhull's triangulation of this near-collinear set once
        # referenced its point at infinity; such sets are refused and
        # scanned exactly.
        points_p, points_q = split_alternating(
            collinear(5000, jitter=1e-10, seed=3)
        )
        report = run_join(points_p, points_q, engine="array")
        assert len(report.pairs) == 4999

    def test_near_flat_input_keeps_candidates_linear(self):
        # Sliver circumcircles once merged the whole chain into one
        # "cocircular cluster": 18M candidates and minutes of work.
        points_p, points_q = split_alternating(
            collinear(6000, jitter=1e-9, seed=3)
        )
        report = run_join(points_p, points_q, engine="array")
        assert len(report.pairs) == 5999
        assert report.candidate_count < 10 * (len(points_p) + len(points_q))

    def test_sliver_circles_never_form_a_cluster(self, monkeypatch):
        # The same input through the triangulation itself (the
        # near-flat refusal lowered to exact flatness): the cluster
        # recovery's radius bound alone keeps candidates linear.
        import repro.core.gabriel as gabriel
        from repro.engine.arrays import PointArray

        monkeypatch.setattr(gabriel, "FLAT_WIDTH", 0.0)
        points_p, points_q = split_alternating(
            collinear(6000, jitter=1e-9, seed=3)
        )
        q_idx, _p_idx = kernels.knn_candidate_blocks(
            PointArray.from_points(points_p), PointArray.from_points(points_q)
        )
        assert len(q_idx) < 10 * (len(points_p) + len(points_q))

    @pytest.mark.parametrize(
        "swap", [False, True], ids=["q-dropped", "p-dropped"]
    )
    def test_dropped_site_scans_its_own_rows(self, swap, monkeypatch):
        # Qhull leaves the site at (0, 1e-127) out of every simplex
        # (tri.coplanar): it pairs with (0, 0) and blocks the ring of
        # (0, 0)-(0, 1).  Only its own row is scanned, whichever side
        # it is on.
        from repro.geometry.point import Point

        scanned = []
        scan = kernels._scan_candidates

        def spy(probe_x, *args):
            scanned.append(len(probe_x))
            return scan(probe_x, *args)

        monkeypatch.setattr(kernels, "_scan_candidates", spy)
        lone = [Point(0.0, 0.0, 0)]
        others = [
            Point(0.0, 1.0, 1),
            Point(0.0, 9.507532953056856e-128, 2),
            Point(1.0, 0.0, 3),
        ]
        points_p, points_q = (others, lone) if swap else (lone, others)
        assert _keys(points_p, points_q, "array") == _keys(
            points_p, points_q, "brute"
        )
        assert scanned == [1]


    def test_small_simplex_scans_its_own_rows(self, monkeypatch):
        # Three sites 1e-7 apart inside a unit square form a simplex
        # below Qhull's in-circle resolution: only the rows at those
        # three sites are scanned.
        from repro.geometry.point import Point

        scanned = []
        scan = kernels._scan_candidates

        def spy(probe_x, *args):
            scanned.append(len(probe_x))
            return scan(probe_x, *args)

        monkeypatch.setattr(kernels, "_scan_candidates", spy)
        coords = [
            (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
            (0.5, 0.5), (0.5 + 1e-7, 0.5), (0.5, 0.5 + 1e-7),
        ]
        points_p = [Point(x, y, i) for i, (x, y) in enumerate(coords[0::2])]
        points_q = [
            Point(x, y, 10 + i) for i, (x, y) in enumerate(coords[1::2])
        ]
        assert _keys(points_p, points_q, "array") == _keys(
            points_p, points_q, "brute"
        )
        assert sorted(scanned) == [1, 2]


class TestPropertyEquivalence:
    @given(lattice_pointset(min_size=1, max_size=30),
           lattice_pointset(min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_array_matches_brute_on_lattice(self, coords_p, coords_q):
        points_p = make_points(coords_p)
        points_q = make_points(coords_q, start_oid=len(points_p))
        assert _keys(points_p, points_q, "array") == _keys(
            points_p, points_q, "brute"
        )

    @given(continuous_pointset(min_size=1, max_size=40),
           continuous_pointset(min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_array_matches_brute_on_continuous(self, coords_p, coords_q):
        points_p = make_points(coords_p)
        points_q = make_points(coords_q, start_oid=len(points_p))
        assert _keys(points_p, points_q, "array") == _keys(
            points_p, points_q, "brute"
        )


class TestPlannerDispatch:
    def test_unknown_algorithm(self):
        points_p, points_q = equivalence_families()["single_point"]
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_join(points_p, points_q, algorithm="quantum")

    def test_empty_inputs(self):
        points_p, points_q = equivalence_families()["uniform"]
        for engine in ("brute", "array"):
            assert run_join([], points_q, algorithm=engine).pairs == []
            assert run_join(points_p, [], algorithm=engine).pairs == []

    def test_reports_carry_algorithm_and_counts(self):
        points_p, points_q = equivalence_families()["uniform"]
        report = run_join(points_p, points_q, algorithm="array")
        assert report.algorithm == "ARRAY"
        assert report.candidate_count >= report.result_count > 0
        assert report.cpu_seconds > 0.0
        assert report.node_accesses == 0  # no R-tree was touched
