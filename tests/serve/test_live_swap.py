"""Live policy swap on running shards — the orchestration serve path.

Pins the regression surface of :meth:`CacheService.swap_policy`:

* a mid-run swap preserves the resident set (queue-structured policies
  migrate LRU → MRU, exactly like ``StorageNode.swap_policy``);
* in-flight coalesced fetches are never dropped and never double-resolved
  across a swap — the single-flight map is shard state, not policy state;
* a terminal origin failure that lands *after* a swap drops the metadata
  from the **new** policy (no phantom hits from a stale reference);
* the swap executes on the worker task, queued behind pending requests.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cache.gdsf import GDSFCache
from repro.cache.lru import LRUCache
from repro.core.scip import SCIPCache
from repro.obs.probe import Probe
from repro.serve import CacheService, OriginConfig, RetryPolicy, SimulatedOrigin
from repro.sim.request import Request


class _ListSink:
    def __init__(self):
        self.records = []

    def write(self, rec):
        self.records.append(rec)


def _service(capacity=1_000_000, n_shards=1, latency=0.0, probe=None, origin=None,
             retry=None):
    return CacheService(
        LRUCache,
        capacity,
        n_shards=n_shards,
        origin=origin or SimulatedOrigin(OriginConfig(latency_mean=latency)),
        retry=retry or RetryPolicy(timeout=0.5, max_retries=2, backoff_base=0.001),
        queue_depth=0,
        probe=probe,
    )


class TestResidentSetMigration:
    def test_swap_preserves_residents_and_recency(self):
        """LRU → SCIP (both queue-structured): every resident object stays
        resident, byte accounting carries over, and subsequent requests for
        migrated keys are hits."""

        async def run():
            service = _service()
            async with service:
                for i in range(20):
                    await service.get(Request(i, i, 1_000))
                before = {
                    "used": service.shards[0].policy.used,
                    "resident": len(service.shards[0].policy),
                }
                await service.swap_policy(SCIPCache)
                after_policy = service.shards[0].policy
                outs = [await service.get(Request(100 + i, i, 1_000)) for i in range(20)]
            return before, after_policy, outs, service

        before, after_policy, outs, service = asyncio.run(run())
        assert isinstance(after_policy, SCIPCache)
        assert len(after_policy) == before["resident"] == 20
        assert after_policy.used == before["used"] == 20_000
        assert all(o.hit for o in outs)
        assert service.unhandled_exceptions == 0

    def test_swap_to_non_queue_policy_restarts_cold(self):
        """GDSF is not queue-structured: the swap is a cold restart (what a
        production rollout without state migration does)."""

        async def run():
            service = _service()
            async with service:
                for i in range(10):
                    await service.get(Request(i, i, 1_000))
                await service.swap_policy(GDSFCache)
                policy = service.shards[0].policy
                out = await service.get(Request(50, 3, 1_000))
            return policy, out, service

        policy, out, service = asyncio.run(run())
        assert isinstance(policy, GDSFCache)
        assert not out.hit  # cold restart: previously-resident key misses
        assert service.unhandled_exceptions == 0

    def test_swap_capacity_matches_shard_slice(self):
        """Each shard's replacement policy gets that shard's budget, not the
        service total."""

        async def run():
            service = _service(capacity=1_000_000, n_shards=4)
            async with service:
                await service.swap_policy(SCIPCache)
                return [s.policy.capacity for s in service.shards]

        capacities = asyncio.run(run())
        assert capacities == [250_000] * 4


class TestInFlightFetches:
    def test_coalesced_fetch_survives_swap(self):
        """A stampede's waiters all resolve exactly once even when the swap
        lands while the leader fetch is still on the wire."""

        async def run():
            service = _service(latency=0.02)
            async with service:
                # 30 concurrent gets on one cold key: 1 leader + 29 coalesced,
                # all parked on the same single-flight generation.
                gets = [
                    asyncio.ensure_future(service.get(Request(0, 7, 500)))
                    for _ in range(30)
                ]
                await asyncio.sleep(0.005)  # fetch in flight, swap now
                await service.swap_policy(SCIPCache)
                outs = await asyncio.gather(*gets)
            return outs, service

        outs, service = asyncio.run(run())
        assert len(outs) == 30
        assert all(o.error is None for o in outs)
        assert sum(1 for o in outs if o.coalesced) == 29
        assert service.origin.fetches_started == 1  # swap caused no refetch
        assert service.metrics.errors.value == 0
        assert service.unhandled_exceptions == 0
        # The migrated metadata survived: the key is resident post-swap.
        assert service.shards[0].policy.contains(7)

    def test_terminal_failure_after_swap_cleans_new_policy(self):
        """The failure path reads ``self.policy`` at failure time, so the
        write-on-miss metadata is dropped from the policy actually serving —
        the one installed by the swap — and no phantom hit survives."""

        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.02))
            origin.inject_failures(2)  # first attempt + its single retry
            service = _service(
                origin=origin,
                retry=RetryPolicy(timeout=0.5, max_retries=1, backoff_base=0.02),
            )
            async with service:
                get = asyncio.ensure_future(service.get(Request(0, 1, 100)))
                await asyncio.sleep(0.005)  # fetch in flight (will fail)
                await service.swap_policy(SCIPCache)
                out = await get
                resident = service.shards[0].policy.contains(1)
            return out, resident, service

        out, resident, service = asyncio.run(run())
        assert out.error is not None and not out.hit
        assert not resident
        assert service.unhandled_exceptions == 0

    def test_swap_queued_behind_pending_requests(self):
        """A swap runs between decisions: requests decided before it are
        served by the old policy even while their fetches are still open,
        and migration carries what they admitted into the new one."""

        async def run():
            service = _service(latency=0.005)
            async with service:
                shard = service.shards[0]
                before = [asyncio.ensure_future(shard.get(Request(i, i, 100))) for i in range(5)]
                await asyncio.sleep(0)  # each decides and starts its fetch
                assert shard.unanswered == 5
                new_policy = shard.swap(SCIPCache)
                outs = await asyncio.gather(*before)
                # The old policy served (and admitted) all five; migration
                # carried them into the new one.
                assert all(not o.hit for o in outs)
                return new_policy, len(new_policy), service

        new_policy, resident, service = asyncio.run(run())
        assert isinstance(new_policy, SCIPCache)
        assert resident == 5
        assert service.unhandled_exceptions == 0


class TestSwapObservability:
    def test_swap_emits_policy_switch_probe_per_shard(self):
        sink = _ListSink()
        probe = Probe(sinks=[sink])

        async def run():
            service = _service(capacity=1_000_000, n_shards=2, probe=probe)
            async with service:
                await service.get(Request(0, 1, 100))
                await service.swap_policy(SCIPCache)
            return service

        asyncio.run(run())
        switches = [r for r in sink.records if r["event"] == "policy_switch"]
        assert len(switches) == 2
        assert sorted(r["shard"] for r in switches) == [0, 1]
        assert all(r["frm"] == "LRU" and r["to"].startswith("SCIP") for r in switches)

    def test_swap_before_start_raises(self):
        async def run():
            service = _service()
            with pytest.raises(RuntimeError):
                await service.swap_policy(SCIPCache)

        asyncio.run(run())
