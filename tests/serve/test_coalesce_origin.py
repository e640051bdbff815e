"""Single-flight coalescing and the simulated origin's failure machinery.

Covers the PR's acceptance criteria directly: a stampede on one cold key
costs exactly one origin fetch per key *generation*, and injected origin
failures/timeouts are retried with backoff and surfaced in metrics instead
of crashing the service.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cache.lru import LRUCache
from repro.serve import (
    CacheService,
    OriginConfig,
    OriginError,
    RetryPolicy,
    SimulatedOrigin,
    SingleFlight,
    fetch_with_retry,
)
from repro.serve.loadgen import stampede_probe
from repro.sim.request import Request

import random


def _service(
    capacity=1_000_000,
    n_shards=1,
    latency=0.001,
    queue_depth=0,
    retry=None,
    origin=None,
    probe=None,
):
    return CacheService(
        LRUCache,
        capacity,
        n_shards=n_shards,
        origin=origin or SimulatedOrigin(OriginConfig(latency_mean=latency)),
        retry=retry or RetryPolicy(timeout=0.5, max_retries=3, backoff_base=0.001),
        queue_depth=queue_depth,
        probe=probe,
    )


class TestSingleFlightUnit:
    def test_lease_join_resolve_lifecycle(self):
        async def run():
            sf = SingleFlight()
            fut, leader = sf.lease("k")
            assert leader and len(sf) == 1 and sf.generations == 1
            fut2, leader2 = sf.lease("k")
            assert fut2 is fut and not leader2 and sf.coalesced == 1
            assert sf.join("k") is fut and sf.coalesced == 2
            assert sf.peek("k") is fut and sf.coalesced == 2  # peek is free
            sf.resolve("k", "done")
            assert await fut == "done"
            assert len(sf) == 0 and sf.join("k") is None
            # A second lease after resolve is a NEW generation.
            _, leader3 = sf.lease("k")
            assert leader3 and sf.generations == 2

        asyncio.run(run())

    def test_resolve_unknown_key_is_noop(self):
        async def run():
            sf = SingleFlight()
            sf.resolve("ghost", None)  # must not raise
            assert sf.inflight_keys() == []

        asyncio.run(run())


class TestStampede:
    def test_one_origin_fetch_per_cold_key(self):
        async def run():
            service = _service(latency=0.002)
            async with service:
                probe = await stampede_probe(service, 50, key=123, size=1000)
            return probe, service

        probe, service = asyncio.run(run())
        assert probe["origin_fetches"] == 1
        assert probe["coalesced"] == 49
        assert probe["errors"] == 0 and probe["shed"] == 0
        assert service.metrics.coalesced.value == 49
        assert service.unhandled_exceptions == 0

    def test_new_generation_after_eviction_refetches(self):
        """Evict-then-re-request is a fresh generation: the origin is asked
        again — coalescing saves stampedes, it is not a second cache."""

        async def run():
            # Capacity fits exactly one 600-byte object at a time.
            service = _service(capacity=1_000, latency=0.0)
            async with service:
                await service.get(Request(0, 1, 600))  # miss + fetch
                await service.get(Request(1, 2, 600))  # evicts key 1
                await service.get(Request(2, 1, 600))  # miss again → refetch
            return service

        service = asyncio.run(run())
        assert service.origin.fetches_started == 3
        assert service.flight_stats()["generations"] == 3
        assert service.flight_stats()["coalesced"] == 0

    def test_sequential_hits_do_not_touch_origin(self):
        async def run():
            service = _service(latency=0.0)
            async with service:
                first = await service.get(Request(0, 7, 100))
                second = await service.get(Request(1, 7, 100))
                third = await service.get(Request(2, 7, 100))
            return first, second, third, service

        first, second, third, service = asyncio.run(run())
        assert not first.hit and second.hit and third.hit
        # The fetch resolved before the later gets: no coalesced waits.
        assert not second.coalesced and not third.coalesced
        assert service.origin.fetches_started == 1


class TestRetryAndFailure:
    def test_injected_failures_are_retried_to_success(self):
        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.0))
            origin.inject_failures(2)
            service = _service(
                origin=origin,
                retry=RetryPolicy(timeout=0.5, max_retries=3, backoff_base=0.001),
            )
            async with service:
                out = await service.get(Request(0, 1, 100))
            return out, origin, service

        out, origin, service = asyncio.run(run())
        assert out.error is None and not out.hit
        assert origin.fetches_failed == 2 and origin.fetches_ok == 1
        assert service.metrics.origin_retries.value == 2
        assert service.metrics.origin_failures.value == 0
        assert service.metrics.errors.value == 0

    def test_hang_trips_timeout_then_retry_succeeds(self):
        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.0))
            origin.inject_hangs(1, seconds=30.0)
            service = _service(
                origin=origin,
                retry=RetryPolicy(timeout=0.02, max_retries=2, backoff_base=0.001),
            )
            async with service:
                out = await service.get(Request(0, 1, 100))
            return out, service

        out, service = asyncio.run(run())
        assert out.error is None
        assert service.metrics.origin_timeouts.value == 1
        assert service.metrics.origin_retries.value == 1
        assert service.unhandled_exceptions == 0

    def test_terminal_failure_surfaces_error_and_drops_metadata(self):
        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.0))
            origin.inject_failures(2)  # exactly first attempt + its retry
            service = _service(
                origin=origin,
                retry=RetryPolicy(timeout=0.5, max_retries=1, backoff_base=0.001),
            )
            async with service:
                out = await service.get(Request(0, 1, 100))
                # The failed object must not linger as a phantom hit…
                resident = service.shards[0].policy.contains(1)
                # …and a later request opens a fresh generation (succeeds
                # now that the injected failures are exhausted).
                again = await service.get(Request(1, 1, 100))
            return out, resident, again, service

        out, resident, again, service = asyncio.run(run())
        assert out.error is not None and not out.hit
        assert not resident
        assert service.metrics.origin_failures.value == 1
        assert service.metrics.errors.value == 1
        # Second generation: a miss again (metadata was dropped), fetch ok.
        assert not again.hit and again.error is None
        assert service.flight_stats()["generations"] == 2
        assert service.unhandled_exceptions == 0

    def test_failure_propagates_to_every_coalesced_waiter(self):
        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.005))
            origin.inject_failures(2)  # first attempt + its single retry
            service = _service(
                origin=origin,
                retry=RetryPolicy(timeout=0.5, max_retries=1, backoff_base=0.001),
            )
            async with service:
                outs = await asyncio.gather(
                    *(service.get(Request(0, 9, 100)) for _ in range(10))
                )
            return outs, service

        outs, service = asyncio.run(run())
        assert all(o.error is not None for o in outs)
        assert service.origin.fetches_started == 2  # one generation, one retry
        assert service.metrics.errors.value == 10
        assert service.unhandled_exceptions == 0

    def test_fetch_with_retry_backoff_is_jittered_and_bounded(self):
        rng = random.Random(1)
        retry = RetryPolicy(backoff_base=0.01, backoff_cap=0.04, jitter=0.5)
        delays = [retry.backoff(a, rng) for a in range(1, 6)]
        assert all(0 < d <= 0.04 for d in delays)
        # Cap engaged from attempt 3 on (0.01 * 2**2 = 0.04).
        assert max(delays) <= 0.04

    def test_fetch_with_retry_never_raises(self):
        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.0))
            origin.inject_failures(5)
            out = await fetch_with_retry(
                origin,
                "k",
                10,
                RetryPolicy(timeout=0.1, max_retries=2, backoff_base=0.0),
                random.Random(0),
            )
            return out

        out = asyncio.run(run())
        assert not out.ok and out.attempts == 3 and out.error


class TestOriginPool:
    def test_bounded_concurrency_is_respected(self):
        async def run():
            origin = SimulatedOrigin(
                OriginConfig(latency_mean=0.005, concurrency=4, latency_jitter=0.0)
            )
            await asyncio.gather(*(origin.fetch(i, 10) for i in range(20)))
            return origin

        origin = asyncio.run(run())
        assert origin.fetches_ok == 20
        assert origin.inflight_peak <= 4

    def test_failure_rate_draws_are_seeded(self):
        async def run(seed):
            origin = SimulatedOrigin(
                OriginConfig(latency_mean=0.0, failure_rate=0.5, seed=seed)
            )
            flags = []
            for i in range(50):
                try:
                    await origin.fetch(i, 1)
                    flags.append(True)
                except OriginError:
                    flags.append(False)
            return flags

        a = asyncio.run(run(3))
        b = asyncio.run(run(3))
        assert a == b and not all(a) and any(a)

    @staticmethod
    async def _settle(turns: int = 3) -> None:
        for _ in range(turns):
            await asyncio.sleep(0)

    async def _pool_still_serves_two(self, origin) -> None:
        """Afterwards the pool is whole: two new fetches run at once, and
        a third still waits for one of them."""
        assert origin.inflight == 0
        batch = [asyncio.ensure_future(origin.fetch(k, 1)) for k in ("x", "y", "z")]
        await self._settle()
        assert origin.inflight == 2
        await asyncio.gather(*batch)
        assert origin.inflight == 0

    def test_waiter_cancelled_while_queued(self):
        async def run():
            origin = SimulatedOrigin(
                OriginConfig(latency_mean=0.01, concurrency=2, latency_jitter=0.0)
            )
            holders = [asyncio.ensure_future(origin.fetch(k, 1)) for k in ("a", "b")]
            queued = asyncio.ensure_future(origin.fetch("c", 1))
            await self._settle()
            assert origin.inflight == 2 and not queued.done()
            queued.cancel()
            with pytest.raises(asyncio.CancelledError):
                await queued
            await asyncio.gather(*holders)
            await self._pool_still_serves_two(origin)
            return origin

        origin = asyncio.run(run())
        assert origin.inflight == 0 and origin.inflight_peak <= 2
        assert origin.fetches_ok == 5

    def test_waiter_cancelled_after_its_connection_was_released_to_it(self):
        async def run():
            origin = SimulatedOrigin(
                OriginConfig(latency_mean=0.01, concurrency=2, latency_jitter=0.0)
            )
            queued: list = []

            async def first():
                await origin.fetch("a", 1)
                # The release just handed this connection to the queued
                # waiter; cancel it before it gets to run.
                queued[0].cancel()

            holders = [asyncio.ensure_future(first()), asyncio.ensure_future(origin.fetch("b", 1))]
            await self._settle()
            queued.append(asyncio.ensure_future(origin.fetch("c", 1)))
            await self._settle()
            assert origin.inflight == 2 and not queued[0].done()
            await asyncio.gather(*holders)
            with pytest.raises(asyncio.CancelledError):
                await queued[0]
            await self._pool_still_serves_two(origin)
            return origin

        origin = asyncio.run(run())
        assert origin.inflight == 0 and origin.inflight_peak <= 2
        assert origin.fetches_ok == 5
