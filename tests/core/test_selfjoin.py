"""Unit tests for the self-RCJ (the postboxes application)."""

import pytest

from repro.core.selfjoin import self_rcj
from repro.datasets.synthetic import uniform
from repro.geometry.point import Point


class TestSelfJoin:
    def test_requires_unique_oids(self):
        with pytest.raises(ValueError, match="unique oids"):
            self_rcj([Point(0, 0, 1), Point(1, 1, 1)])

    def test_no_self_pairs(self):
        pts = uniform(100, seed=3)
        for pair in self_rcj(pts, algorithm="obj"):
            assert pair.p.oid != pair.q.oid

    def test_pairs_reported_once_ordered(self):
        pts = uniform(150, seed=4)
        pairs = self_rcj(pts, algorithm="obj")
        keys = [p.key() for p in pairs]
        assert len(keys) == len(set(keys))
        for a, b in keys:
            assert a < b

    def test_all_algorithms_agree(self):
        pts = uniform(120, seed=5)
        reference = {p.key() for p in self_rcj(pts, algorithm="brute")}
        for algorithm in ("inj", "bij", "obj", "gabriel"):
            got = {p.key() for p in self_rcj(pts, algorithm=algorithm)}
            assert got == reference, algorithm

    def test_two_points_always_pair(self):
        pairs = self_rcj([Point(0, 0, 0), Point(10, 10, 1)])
        assert [p.key() for p in pairs] == [(0, 1)]

    def test_is_gabriel_graph_edge_count(self):
        # The self-RCJ is the Gabriel graph: planar, so at most 3n - 8
        # edges (n >= 3).
        pts = uniform(400, seed=6)
        pairs = self_rcj(pts, algorithm="obj")
        assert len(pairs) <= 3 * len(pts) - 8

    def test_connectivity(self):
        # Gabriel graphs contain the Euclidean MST, hence are connected.
        import networkx as nx

        pts = uniform(150, seed=7)
        pairs = self_rcj(pts, algorithm="obj")
        graph = nx.Graph()
        graph.add_nodes_from(p.oid for p in pts)
        graph.add_edges_from(pair.key() for pair in pairs)
        assert nx.is_connected(graph)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm 'fast'"):
            self_rcj(uniform(10, seed=1), algorithm="fast")
