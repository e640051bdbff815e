"""CacheService replication hooks: ``fill``, ``health``, ``resident_entries``.

The cluster layer's contract with the serve layer: fills admit metadata
through the owning shard's worker (never shed, never stats-polluting),
``health()`` is a cheap liveness snapshot, and ``resident_entries()``
walks the resident set for warm handoffs.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cache import available_policies, make_policy
from repro.cache.lru import LRUCache
from repro.serve import CacheService, OriginConfig, SimulatedOrigin
from repro.sim.request import Request


def _service(capacity=100_000, n_shards=2, factory=LRUCache):
    return CacheService(
        factory,
        capacity,
        n_shards=n_shards,
        origin=SimulatedOrigin(OriginConfig(latency_mean=0.0)),
    )


class TestFill:
    def test_fill_admits_then_reports_resident(self):
        async def run():
            async with _service() as service:
                first = await service.fill(Request(0, 1, 1000))
                second = await service.fill(Request(0, 1, 1000))
                resident = list(service.resident_entries())
            return first, second, resident

        first, second, resident = asyncio.run(run())
        assert first is True and second is False
        assert resident == [(1, 1000)]

    # Every policy runs its miss path on a fill; these three may decline
    # there (AdaptSize's admission coin, an oracle with no annotated future).
    @pytest.mark.parametrize(
        "name",
        [n for n in available_policies() if n not in ("AdaptSize", "Belady", "Belady-Size")],
    )
    def test_fill_admits_on_every_registry_policy(self, name):
        """Fill is not the opt-in migration protocol: policies that refuse
        ``import_resident`` (CLOCK, SIEVE, ARC, GDSF, ...) still take fills."""

        async def run():
            factory = lambda cap: make_policy(name, cap)  # noqa: E731
            async with _service(factory=factory, n_shards=1) as service:
                first = await service.fill(Request(0, 1, 1000))
                second = await service.fill(Request(0, 1, 1000))
                policy = service.shards[0].policy
                return first, second, policy.contains(1), policy.stats.requests, service

        first, second, resident, requests, service = asyncio.run(run())
        assert first is True and second is False
        assert resident and requests == 0
        assert service.unhandled_exceptions == 0

    def test_fill_does_not_touch_stats(self):
        async def run():
            async with _service() as service:
                for i in range(20):
                    await service.fill(Request(0, i, 500))
                return service.cache_stats()

        stats = asyncio.run(run())
        # A fill is not traffic: no hit/miss recorded, but bytes resident.
        assert stats["requests"] == 0
        assert stats["resident_objects"] == 20
        assert stats["used_bytes"] == 20 * 500

    def test_filled_object_serves_as_hit(self):
        async def run():
            async with _service() as service:
                await service.fill(Request(0, 7, 1000))
                out = await service.get(Request(1, 7, 1000))
                return out, service.origin.fetches_started

        out, fetches = asyncio.run(run())
        assert out.hit and fetches == 0

    def test_oversized_fill_refused(self):
        async def run():
            async with _service(capacity=2_000, n_shards=2) as service:
                # Per-shard slice is 1000 bytes; a 5000-byte object can't fit.
                return await service.fill(Request(0, 1, 5_000))

        assert asyncio.run(run()) is False

    def test_fill_before_start_raises(self):
        service = _service()
        with pytest.raises(RuntimeError, match="before start"):
            asyncio.run(service.fill(Request(0, 1, 100)))


class TestHealth:
    def test_health_snapshot_shape(self):
        async def run():
            async with _service(n_shards=3) as service:
                for i in range(50):
                    await service.get(Request(i, i, 100))
                return service.health()

        health = asyncio.run(run())
        assert health["started"] is True
        assert health["n_shards"] == 3
        assert len(health["queue_depths"]) == 3
        assert health["shed"] == 0
        assert health["unhandled_exceptions"] == 0

    def test_health_cheap_when_stopped(self):
        health = _service().health()
        assert health["started"] is False
