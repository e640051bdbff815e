"""Regression coverage for :meth:`repro.tdc.node.StorageNode.swap_policy`.

The TDC deployment story swaps LRU's insertion policy for SCIP on a live
node: the resident set must survive the hot swap, in recency order, with
byte accounting intact — no cold restart, no phantom evictions.
"""

from __future__ import annotations

from repro.cache.fifo import FIFOCache
from repro.cache.gdsf import GDSFCache
from repro.cache.lru import LRUCache
from repro.core.scip import SCIPCache
from repro.sim.request import Request
from repro.tdc.node import StorageNode


def _warm_node(capacity=10_000, n=40):
    node = StorageNode("n0", LRUCache(capacity))
    # Distinct sizes so byte accounting mismatches would be visible; a
    # second pass over the odd keys scrambles recency away from insertion
    # order, which is what the swap must reproduce.
    for i in range(n):
        node.get(Request(i, i, 100 + i))
    for j, i in enumerate(range(1, n, 2)):
        node.get(Request(n + j, i, 100 + i))
    return node


class TestSwapPolicy:
    def test_residents_survive_in_recency_order(self):
        node = _warm_node()
        before_keys = node.policy.resident_keys()  # MRU → LRU
        before_used = node.policy.used

        node.swap_policy(LRUCache)

        assert isinstance(node.policy, LRUCache)
        assert node.policy.resident_keys() == before_keys
        assert node.policy.used == before_used
        assert node.capacity == 10_000

    def test_lru_to_scip_preserves_membership_and_bytes(self):
        node = _warm_node()
        before = set(node.policy.resident_keys())
        before_used = node.policy.used

        node.swap_policy(SCIPCache)

        assert isinstance(node.policy, SCIPCache)
        assert set(node.policy.resident_keys()) == before
        assert node.policy.used == before_used
        # The migrated objects answer hits, not misses, on the new policy.
        hot = node.policy.resident_keys()[0]
        assert node.get(Request(10_000, hot, 100))

    def test_swap_does_not_pollute_new_policy_stats(self):
        node = _warm_node()
        node.swap_policy(SCIPCache)
        # Migration re-inserts via _miss directly; the request/hit/miss
        # counters of the fresh policy must start clean.
        assert node.policy.stats.requests == 0
        assert node.policy.stats.evictions == 0

    def test_swap_to_non_queue_policy_restarts_cold(self):
        node = _warm_node()
        node.swap_policy(GDSFCache)  # priority structure: takes no imports
        assert isinstance(node.policy, GDSFCache)
        assert len(node.policy) == 0  # no state migration possible → cold

    def test_swap_preserves_eviction_order_under_pressure(self):
        """After the swap, evictions proceed LRU-first exactly as they
        would have on the original policy."""
        node = _warm_node(capacity=5_000, n=20)
        before = node.policy.resident_keys()  # MRU → LRU
        node.swap_policy(LRUCache)
        # Force one eviction: the victim must be the pre-swap LRU tail.
        tail = before[-1]
        node.get(Request(99_999, 777_777, 4_000))
        assert not node.policy.contains(tail)
        assert node.policy.contains(before[0])

    def test_fifo_to_lru_round_trip(self):
        node = StorageNode("n1", FIFOCache(10_000))
        for i in range(10):
            node.get(Request(i, i, 200))
        before = node.policy.resident_keys()
        node.swap_policy(LRUCache)
        assert node.policy.resident_keys() == before
