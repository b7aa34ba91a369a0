"""Unit tests for the incremental / top-k RCJ."""

import itertools

from repro.core.brute import brute_force_rcj
from repro.core.topk import incremental_rcj, top_k_rcj
from repro.datasets.synthetic import uniform
from repro.rtree.bulk import bulk_load


def build(n_p=150, n_q=130, seed_p=1, seed_q=2):
    points_p = uniform(n_p, seed=seed_p)
    points_q = uniform(n_q, seed=seed_q, start_oid=n_p)
    return (
        points_p,
        points_q,
        bulk_load(points_p, name="TP"),
        bulk_load(points_q, name="TQ"),
    )


class TestIncrementalRCJ:
    def test_ascending_diameter(self):
        _, _, tree_p, tree_q = build()
        diameters = [
            pair.diameter
            for pair in itertools.islice(incremental_rcj(tree_p, tree_q), 50)
        ]
        assert diameters == sorted(diameters)

    def test_full_enumeration_matches_oracle(self):
        points_p, points_q, tree_p, tree_q = build()
        got = {pair.key() for pair in incremental_rcj(tree_p, tree_q)}
        ref = {r.key() for r in brute_force_rcj(points_p, points_q)}
        assert got == ref

    def test_no_duplicates(self):
        _, _, tree_p, tree_q = build()
        keys = [pair.key() for pair in incremental_rcj(tree_p, tree_q)]
        assert len(keys) == len(set(keys))


class TestTopK:
    def test_k_zero(self):
        _, _, tree_p, tree_q = build()
        assert top_k_rcj(tree_p, tree_q, 0) == []

    def test_top_k_are_global_minima(self):
        points_p, points_q, tree_p, tree_q = build()
        ref = sorted(
            brute_force_rcj(points_p, points_q), key=lambda r: r.diameter
        )
        got = top_k_rcj(tree_p, tree_q, 10)
        assert [p.diameter for p in got] == [
            r.diameter for r in ref[:10]
        ]

    def test_k_exceeds_result_size(self):
        points_p, points_q, tree_p, tree_q = build(n_p=30, n_q=25)
        ref = brute_force_rcj(points_p, points_q)
        got = top_k_rcj(tree_p, tree_q, 10_000)
        assert len(got) == len(ref)

    def test_lazy_behaviour(self):
        # Small k should read far fewer nodes than the full join.
        _, _, tree_p, tree_q = build(n_p=1500, n_q=1500, seed_p=5, seed_q=6)
        tree_p.reset_stats()
        tree_q.reset_stats()
        top_k_rcj(tree_p, tree_q, 5)
        few = tree_p.node_accesses + tree_q.node_accesses

        # The access counters never decrease, so the accesses counted
        # after a partial drain bound the full join's from below: stop
        # once they pass 10 * few, and the claim is proved.
        tree_p.reset_stats()
        tree_q.reset_stats()
        for _ in incremental_rcj(tree_p, tree_q):
            if tree_p.node_accesses + tree_q.node_accesses > 10 * few:
                break
        all_cost = tree_p.node_accesses + tree_q.node_accesses
        assert few < all_cost / 10

    def test_self_join_mode(self):
        points = uniform(100, seed=9)
        tree = bulk_load(points)
        pairs = top_k_rcj(tree, tree, 20, exclude_same_oid=True)
        assert pairs
        assert all(p.p.oid != p.q.oid for p in pairs)

    def test_stops_pulling_at_kth_verified_pair(self, monkeypatch):
        # The candidate stream must not advance a single candidate past
        # the k-th verified pair, and must be closed at that point (no
        # half-open generator left to expand heap nodes on GC whims).
        import repro.core.topk as topk_mod

        state = {"pulls": 0, "closed": False}
        original = topk_mod.incremental_closest_pairs

        def counting(tree_p, tree_q):
            try:
                for item in original(tree_p, tree_q):
                    state["pulls"] += 1
                    yield item
            finally:
                state["closed"] = True

        monkeypatch.setattr(topk_mod, "incremental_closest_pairs", counting)
        _, _, tree_p, tree_q = build(n_p=400, n_q=400, seed_p=3, seed_q=4)
        k = 12
        got = topk_mod.top_k_rcj(tree_p, tree_q, k)
        assert len(got) == k
        assert state["closed"]

        # Expected pulls: candidates up to and including the k-th
        # verified pair — replayed on the untouched stream.
        verified = 0
        expected = 0
        for _dist, p, q in original(tree_p, tree_q):
            expected += 1
            candidate = topk_mod.Candidate(p, q)
            topk_mod.verify_circles(tree_p, [candidate])
            if candidate.alive:
                topk_mod.verify_circles(tree_q, [candidate])
            if candidate.alive:
                verified += 1
                if verified == k:
                    break
        assert state["pulls"] == expected
