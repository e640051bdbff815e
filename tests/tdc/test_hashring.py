"""Consistent-hash ring tests."""

from __future__ import annotations

import pytest

from repro.hashring import HashRing


class TestHashRing:
    def test_routing_stable(self):
        ring = HashRing(["a", "b", "c"])
        assert all(ring.route(k) == ring.route(k) for k in range(100))

    def test_all_nodes_get_load(self):
        ring = HashRing(["a", "b", "c"], vnodes=64)
        dist = ring.load_distribution(range(3_000))
        assert all(v > 0 for v in dist.values())
        # Virtual nodes keep imbalance moderate.
        assert max(dist.values()) < 3 * min(dist.values())

    def test_node_removal_moves_only_its_keys(self):
        ring = HashRing(["a", "b", "c", "d"], vnodes=64)
        before = {k: ring.route(k) for k in range(2_000)}
        ring.remove_node("c")
        moved = sum(1 for k, owner in before.items() if ring.route(k) != owner)
        owned_by_c = sum(1 for owner in before.values() if owner == "c")
        assert moved == owned_by_c, "only the removed node's keys may move"

    def test_node_addition_bounded_reshuffle(self):
        ring = HashRing(["a", "b", "c"], vnodes=64)
        before = {k: ring.route(k) for k in range(2_000)}
        ring.add_node("d")
        moved = sum(1 for k, owner in before.items() if ring.route(k) != owner)
        # The newcomer should take roughly 1/4 of the keyspace, not most.
        assert moved < len(before) * 0.45

    def test_reshuffle_fraction_bounded_across_ring_sizes(self):
        """Property pin: on a join or a leave, the moved-key fraction stays
        within ~2× the ideal 1/n share — the bound that makes consistent
        hashing worth its complexity over modulo routing — and holds across
        ring sizes, not just one lucky configuration."""
        keys = range(4_000)
        for n in (4, 6, 8, 12):
            nodes = [f"n{i}" for i in range(n)]
            ring = HashRing(nodes, vnodes=128)
            before = {k: ring.route(k) for k in keys}

            # Join: the newcomer ideally absorbs 1/(n+1) of the keyspace.
            ring.add_node("joiner")
            moved = {k for k, owner in before.items() if ring.route(k) != owner}
            assert len(moved) <= len(before) * 2.0 / (n + 1), (n, len(moved))
            # No collateral movement: every moved key went TO the joiner.
            assert all(ring.route(k) == "joiner" for k in moved)

            # Leave is the exact inverse: draining the joiner restores the
            # previous assignment bit-for-bit (ring points are deterministic).
            ring.remove_node("joiner")
            assert all(ring.route(k) == owner for k, owner in before.items())

            # Draining an original node moves only its keys, and its share
            # was itself bounded by ~2/n.
            victim = nodes[n // 2]
            owned = {k for k, owner in before.items() if owner == victim}
            ring.remove_node(victim)
            moved = {k for k, owner in before.items() if ring.route(k) != owner}
            assert moved == owned
            assert len(owned) <= len(before) * 2.0 / n, (n, len(owned))

    def test_add_idempotent(self):
        ring = HashRing(["a"])
        n = len(ring._ring)
        ring.add_node("a")
        assert len(ring._ring) == n

    def test_guards(self):
        with pytest.raises(ValueError):
            HashRing([])
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.remove_node("a")
        with pytest.raises(KeyError):
            ring.remove_node("zzz")

    def test_cluster_integration(self, cdn_t_small):
        from repro.cache.lru import LRUCache
        from repro.tdc.cluster import TDCCluster

        cluster = TDCCluster(
            3, 2, 1_000_000, 2_000_000,
            lambda cap: LRUCache(cap), use_hashring=True,
        )
        for r in list(cdn_t_small)[:3_000]:
            cluster.serve(r)
        served = sum(n.policy.stats.requests for n in cluster.oc)
        assert served == 3_000
        assert all(n.policy.stats.requests > 0 for n in cluster.oc)


class TestPreferenceList:
    def test_primary_matches_route(self):
        ring = HashRing(["a", "b", "c", "d"])
        for key in range(500):
            assert ring.preference_list(key, 2)[0] == ring.route(key)

    def test_distinct_owners(self):
        ring = HashRing(["a", "b", "c", "d"])
        for key in range(500):
            owners = ring.preference_list(key, 3)
            assert len(owners) == len(set(owners)) == 3

    def test_deterministic(self):
        ring = HashRing(["a", "b", "c"])
        assert all(
            ring.preference_list(k, 2) == ring.preference_list(k, 2)
            for k in range(200)
        )

    def test_shorter_when_ring_small(self):
        ring = HashRing(["a", "b"])
        owners = ring.preference_list(7, 5)
        assert sorted(owners) == ["a", "b"]

    def test_n_must_be_positive(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.preference_list(1, 0)

    def test_replica_stable_under_unrelated_removal(self):
        # Dynamo property: removing a node not on a key's preference list
        # leaves that key's owners untouched.
        ring = HashRing(["a", "b", "c", "d", "e"], vnodes=64)
        before = {k: ring.preference_list(k, 2) for k in range(2_000)}
        ring.remove_node("e")
        for k, owners in before.items():
            if "e" not in owners:
                assert ring.preference_list(k, 2) == owners
