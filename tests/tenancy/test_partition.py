"""Quota invariants of :class:`TenantPartitionedCache`.

The two properties the tentpole leans on, pinned at the composite level:

* *isolation* — a tenant's admissions evict only that tenant's own bytes;
  an under-quota tenant never loses residents to a neighbour's pressure;
* *scoped victim selection* — ``set_quotas`` shrinks evict from the
  over-quota tenant alone, via its inner policy's own LRU order.
"""

from __future__ import annotations

import random

import pytest

from repro.core.scip import SCIPCache
from repro.obs.probe import Probe
from repro.sim.request import Request
from repro.tenancy import TenantPartitionedCache
from repro.traces.drift import TENANT_STRIDE
from tests.core.scip_reference import ReferenceSCIP, assert_same_state


class ListSink:
    def __init__(self):
        self.records = []

    def write(self, rec):
        self.records.append(rec)


def _key(tenant: int, i: int) -> int:
    return tenant * TENANT_STRIDE + i


def _fill(cache, tenant, n, size=100, start=0):
    for i in range(start, start + n):
        cache.request(Request(i, _key(tenant, i), size))


class TestIsolation:
    def test_neighbour_pressure_never_evicts_under_quota_tenant(self):
        cache = TenantPartitionedCache(2_000, n_tenants=2)  # 1000 bytes each
        _fill(cache, 0, 5, size=100)  # tenant 0 at 500/1000 — under quota
        resident = [_key(0, i) for i in range(5)]
        # Tenant 1 hammers far past its own quota.
        _fill(cache, 1, 200, size=100)
        for key in resident:
            assert cache.contains(key), "under-quota tenant lost a resident"
        assert cache.inners[1].used <= cache.inners[1].capacity
        cache.check_invariants()

    def test_admission_evicts_only_the_admitting_tenant(self):
        cache = TenantPartitionedCache(2_000, n_tenants=2)
        _fill(cache, 0, 10, size=100)  # tenant 0 exactly at quota
        _fill(cache, 1, 10, size=100)  # tenant 1 exactly at quota
        evictions_t0 = cache.inners[0].stats.evictions
        _fill(cache, 1, 50, size=100, start=10)  # tenant 1 churns
        assert cache.inners[0].stats.evictions == evictions_t0
        assert cache.inners[1].stats.evictions >= 50
        cache.check_invariants()

    def test_object_larger_than_quota_is_never_force_fitted(self):
        cache = TenantPartitionedCache(2_000, n_tenants=2)
        _fill(cache, 0, 5, size=100)
        cache.request(Request(99, _key(0, 999), 5_000))  # > tenant quota
        assert not cache.contains(_key(0, 999))
        assert all(cache.contains(_key(0, i)) for i in range(5))

    def test_out_of_namespace_keys_route_to_tenant_zero(self):
        cache = TenantPartitionedCache(2_000, n_tenants=2)
        assert cache.tenant_of(-5) == 0
        assert cache.tenant_of("sentinel") == 0
        assert cache.tenant_of(7 * TENANT_STRIDE) == 0  # beyond K
        assert cache.tenant_of(TENANT_STRIDE + 3) == 1


class TestQuotaResplit:
    def test_shrink_evicts_from_the_shrunk_tenant_only_in_lru_order(self):
        sink = ListSink()
        cache = TenantPartitionedCache(2_000, n_tenants=2)
        cache._probe = Probe([sink])
        _fill(cache, 0, 10, size=100)
        _fill(cache, 1, 10, size=100)
        evicted = cache.set_quotas({0: 400, 1: 1_600})
        # Only tenant 0 lost bytes, and exactly down to its new quota.
        assert set(evicted) == {0} and evicted[0] == 600
        assert cache.inners[0].used == 400
        assert cache.inners[1].used == 1_000  # untouched
        # LRU order: the oldest six went, the newest four stayed.
        assert all(not cache.contains(_key(0, i)) for i in range(6))
        assert all(cache.contains(_key(0, i)) for i in range(6, 10))
        # The shrink emitted a quota_evict event for the loser only.
        evs = [r for r in sink.records if r["event"] == "quota_evict"]
        assert len(evs) == 1 and evs[0]["tenant"] == 0
        assert evs[0]["freed_bytes"] == 600 and evs[0]["evicted"] == 6
        cache.check_invariants()

    def test_resplit_preserves_per_tenant_byte_accounting(self):
        cache = TenantPartitionedCache(3_000, n_tenants=3)
        for t in range(3):
            _fill(cache, t, 8, size=100)
        before = {t: cache.inners[t].used for t in range(3)}
        evicted = cache.set_quotas({0: 500, 1: 1_500, 2: 1_000})
        for t in range(3):
            assert cache.inners[t].used == before.get(t, 0) - evicted.get(t, 0)
            assert cache.inners[t].used <= cache.inners[t].capacity
        assert cache.quotas() == {0: 500, 1: 1_500, 2: 1_000}
        assert cache.quota_evicted_bytes == sum(evicted.values())
        cache.check_invariants()

    def test_transient_state_never_exceeds_capacity(self):
        # Shrinks run before grows, so a crossing re-split stays legal.
        cache = TenantPartitionedCache(2_000, n_tenants=2)
        _fill(cache, 0, 10, size=100)
        _fill(cache, 1, 10, size=100)
        cache.set_quotas({0: 1_800, 1: 200})
        cache.check_invariants()
        cache.set_quotas({0: 200, 1: 1_800})
        cache.check_invariants()

    def test_quotas_summing_over_capacity_rejected(self):
        cache = TenantPartitionedCache(2_000, n_tenants=2)
        with pytest.raises(ValueError, match="capacity"):
            cache.set_quotas({0: 1_500, 1: 1_000})
        with pytest.raises(ValueError, match="missing"):
            cache.set_quotas({0: 1_000})


class TestSCIPPartitions:
    def test_resplits_between_requests_match_the_reference_per_tenant(self):
        """SCIP partitions under quota changes: every re-split's shrink goes
        through SCIP's own eviction (history lists included) and its grow is
        seen by the next request, so each tenant stays equal to the naive
        transcription driven through the same requests and capacities."""
        params = {"update_interval": 50, "deny_gap_factor": 0.5}
        cache = TenantPartitionedCache(
            9_000, n_tenants=3, inner_factory=lambda quota: SCIPCache(quota, **params)
        )
        refs = {t: ReferenceSCIP(3_000, **params) for t in range(3)}
        splits = [{0: 1_000, 1: 4_000, 2: 4_000}, {0: 5_000, 1: 500, 2: 3_500},
                  {0: 3_000, 1: 3_000, 2: 3_000}]
        rng = random.Random(4)
        for i in range(3_000):
            if i % 250 == 249:
                quotas = splits[(i // 250) % len(splits)]
                used = {t: ref.used for t, ref in refs.items()}
                evicted = cache.set_quotas(quotas)
                for t, ref in refs.items():
                    ref.resize(quotas[t])
                assert evicted == {t: used[t] - ref.used for t, ref in refs.items() if used[t] > ref.used}
            tenant = rng.randrange(3)
            key, size = _key(tenant, int(rng.paretovariate(0.8)) % 300), rng.randrange(50, 400)
            assert cache.request(Request(i, key, size)) == refs[tenant].request(key, size)
        assert cache.quota_evictions > 0
        for t, ref in refs.items():
            assert_same_state(cache.inners[t], ref)
        cache.check_invariants()


class TestAggregation:
    def test_stats_and_len_aggregate_across_tenants(self):
        cache = TenantPartitionedCache(2_000, n_tenants=2)
        _fill(cache, 0, 5)
        _fill(cache, 1, 7)
        # Re-request tenant 0's set: hits.
        _fill(cache, 0, 5)
        st = cache.stats
        assert st.requests == 17 and st.hits == 5
        assert len(cache) == 12
        rows = cache.tenant_stats()
        assert rows[0]["requests"] == 10 and rows[1]["requests"] == 7
        assert rows[0]["used_bytes"] == 500 and rows[0]["quota_bytes"] == 1_000

    def test_derived_properties_reject_assignment(self):
        cache = TenantPartitionedCache(2_000, n_tenants=2)
        with pytest.raises(AttributeError):
            cache.used = 0
        with pytest.raises(AttributeError):
            cache.stats = None

    def test_export_import_round_trip_lands_in_owner_partitions(self):
        src = TenantPartitionedCache(2_000, n_tenants=2)
        _fill(src, 0, 4)
        _fill(src, 1, 3)
        dst = TenantPartitionedCache(2_000, n_tenants=2)
        for key, size in src.export_residents():
            assert dst.import_resident(key, size)
        for t in (0, 1):
            assert dst.inners[t].used == src.inners[t].used
        dst.check_invariants()
