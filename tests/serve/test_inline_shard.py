"""The shard decides in the caller and the leader fetches in the caller.

What the queue-less shape promises: a hit returns without suspending, the
``queue_depth`` bound counts unanswered requests and is checked before the
policy sees anything, the books balance after a failing burst, a swap falls
between decisions, a cancelled leader hands its fetch over, and the
per-attempt timeout is an entry in the loop's deadline queue for that
timeout, which arms at most one timer and which outside cancellation
still beats.
"""

from __future__ import annotations

import asyncio
import gc
import random
import weakref

import pytest

from repro.cache.lru import LRUCache
from repro.core.scip import SCIPCache
from repro.serve import (
    CacheService,
    OriginConfig,
    RetryPolicy,
    SimulatedOrigin,
    fetch_with_retry,
)
from repro.sim.request import Request


def _service(latency=0.0, capacity=1_000_000, origin=None, **kw):
    kw.setdefault("retry", RetryPolicy(timeout=0.5, max_retries=1, backoff_base=0.001))
    kw.setdefault("n_shards", 1)
    return CacheService(
        LRUCache,
        capacity,
        origin=origin or SimulatedOrigin(OriginConfig(latency_mean=latency)),
        **kw,
    )


async def _settle(turns: int = 3) -> None:
    """Let freshly created tasks run up to their first real suspension."""
    for _ in range(turns):
        await asyncio.sleep(0)


class TestDecisionInTheCaller:
    def test_hit_returns_without_suspending(self):
        """No clock involved: stepping the coroutine once must finish it."""

        async def run():
            async with _service() as service:
                await service.get(Request(0, 1, 100))
                coro = service.get(Request(1, 1, 100))
                with pytest.raises(StopIteration) as stop:
                    coro.send(None)
                return stop.value.value

        out = asyncio.run(run())
        assert out.hit and not out.coalesced and out.error is None

    def test_saturated_shard_sheds_hits_before_the_policy_sees_them(self):
        async def run():
            async with _service(latency=0.05, queue_depth=2) as service:
                shard = service.shards[0]
                await service.get(Request(0, 1, 100))  # key 1 is resident
                waiting = [
                    asyncio.ensure_future(service.get(Request(0, k, 100))) for k in (2, 3)
                ]
                await _settle()
                assert shard.unanswered == 2
                seen = service.cache_stats()["requests"]
                out = await service.get(Request(0, 1, 100))
                assert service.cache_stats()["requests"] == seen
                assert service.health()["queue_depths"] == [2]
                await asyncio.gather(*waiting)
                again = await service.get(Request(0, 1, 100))
            return out, again, service

        out, again, service = asyncio.run(run())
        assert out.shed and not out.hit
        assert again.hit and not again.shed
        assert service.metrics.shed.value == 1

    def test_books_balance_after_a_failing_burst(self):
        async def run():
            origin = SimulatedOrigin(
                OriginConfig(latency_mean=0.001, failure_rate=0.2, seed=5)
            )
            service = _service(origin=origin, n_shards=2, queue_depth=64, capacity=20_000)
            rng = random.Random(5)
            reqs = [Request(i, rng.randrange(120), 100) for i in range(500)]
            async with service:
                outs = await asyncio.gather(*(service.get(r) for r in reqs))
                open_now = [s.unanswered for s in service.shards]
            return outs, open_now, service

        outs, open_now, service = asyncio.run(run())
        m = service.metrics
        assert m.requests.value == 500
        assert m.hits.value + m.misses.value + m.shed.value == 500
        assert m.shed.value == sum(o.shed for o in outs) > 0
        assert 0 < m.errors.value <= m.misses.value
        assert m.errors.value == sum(o.error is not None for o in outs)
        assert open_now == [0, 0]
        assert service.flight_stats()["open"] == 0
        assert service.unhandled_exceptions == 0

    def test_swap_falls_between_two_submit_batches(self):
        """Decided where ``get`` first runs: the batch started before the
        swap is the old policy's, the batch after it the new one's."""

        async def run():
            async with _service() as service:
                shard = service.shards[0]
                old = shard.policy
                before = [asyncio.ensure_future(shard.get(Request(i, i, 100))) for i in range(5)]
                await _settle(1)  # each has decided and leads its fetch
                assert old.stats.misses == 5
                new = shard.swap(SCIPCache)
                after = [asyncio.ensure_future(shard.get(Request(5 + i, i, 100))) for i in range(5)]
                outs = await asyncio.gather(*before, *after)
                assert shard.unanswered == 0
            return old, new, outs

        old, new, outs = asyncio.run(run())
        assert (old.stats.hits, old.stats.misses) == (0, 5)
        assert all(not o.hit for o in outs[:5])
        # the five residents migrated, so the new policy answers with hits
        assert (new.stats.hits, new.stats.misses) == (5, 0)
        assert all(o.hit for o in outs[5:])


class TestCancelledLeader:
    def test_followers_still_get_their_body(self):
        async def run():
            async with _service(latency=0.03) as service:
                shard = service.shards[0]
                leader = asyncio.ensure_future(service.get(Request(0, 9, 100)))
                await _settle()
                followers = [
                    asyncio.ensure_future(service.get(Request(0, 9, 100))) for _ in range(2)
                ]
                await _settle()
                assert shard.unanswered == 3
                leader.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await leader
                outs = await asyncio.gather(*followers)
                state = (shard.unanswered, len(shard.flight), shard.policy.contains(9))
            return outs, state, service

        outs, state, service = asyncio.run(run())
        assert all(o.ok and o.coalesced for o in outs)
        assert state == (0, 0, True)
        assert service.unhandled_exceptions == 0

    def test_close_waits_for_the_handed_over_fetch(self):
        async def run():
            service = _service(latency=0.03)
            await service.start()
            leader = asyncio.ensure_future(service.get(Request(0, 9, 100)))
            await _settle()
            leader.cancel()
            await asyncio.gather(leader, return_exceptions=True)
            assert len(service.shards[0].flight) == 1
            await service.close()
            return service

        service = asyncio.run(run())
        assert len(service.shards[0].flight) == 0
        assert service.origin.fetches_ok == 1
        assert service.shards[0].policy.contains(9)

    def test_failed_hand_over_removes_the_metadata(self):
        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.02))
            service = _service(origin=origin)
            async with service:
                leader = asyncio.ensure_future(service.get(Request(0, 9, 100)))
                follower = asyncio.ensure_future(service.get(Request(0, 9, 100)))
                await _settle()
                origin.inject_failures(2)  # the hand-over's attempt and its retry
                leader.cancel()
                out = await follower
                resident = service.shards[0].policy.contains(9)
            return out, resident, service

        out, resident, service = asyncio.run(run())
        assert out.error is not None and out.coalesced
        assert not resident
        assert service.unhandled_exceptions == 0


class TestAttemptTimeout:
    def test_hang_is_one_timeout_then_the_retry_succeeds(self):
        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.0))
            origin.inject_hangs(1, seconds=30.0)
            return await fetch_with_retry(
                origin,
                "k",
                10,
                RetryPolicy(timeout=0.02, max_retries=2, backoff_base=0.001),
                random.Random(0),
            )

        out = asyncio.run(run())
        assert out.ok and out.timeouts == 1 and out.attempts == 2

    def test_outside_cancel_propagates_and_disarms_the_timer(self):
        timeout = 0.1

        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.05))
            lingered = []

            async def fetch_then_linger():
                try:
                    await fetch_with_retry(
                        origin, "k", 10, RetryPolicy(timeout=timeout), random.Random(0)
                    )
                finally:
                    # The cancelled task itself outlives the attempt's deadline.
                    await asyncio.sleep(timeout + 0.05)
                    lingered.append(True)

            task = asyncio.ensure_future(fetch_then_linger())
            # Sleeps past the cancelled attempt's deadline on the same loop:
            # nothing left armed for that attempt may cancel it either.
            sibling = asyncio.ensure_future(asyncio.sleep(timeout + 0.05, "slept"))
            await asyncio.sleep(0.005)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return await sibling, lingered, origin

        slept, lingered, origin = asyncio.run(run())
        assert slept == "slept" and lingered == [True]
        assert origin.inflight == 0

    def test_hang_then_retry_without_uncancel(self, monkeypatch):
        """The 3.10 branch: a timeout is told apart from an outside cancel
        only by whether the deadline fired."""
        monkeypatch.setattr("repro.serve.origin._CAN_UNCANCEL", False)

        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.0))
            origin.inject_hangs(1, seconds=30.0)
            return await fetch_with_retry(
                origin,
                "k",
                10,
                RetryPolicy(timeout=0.02, max_retries=2, backoff_base=0.001),
                random.Random(0),
            )

        out = asyncio.run(run())
        assert out.ok and out.timeouts == 1 and out.attempts == 2

    def test_staggered_hangs_time_out_at_their_own_deadlines(self):
        timeout = 0.05

        async def one(origin, started: list):
            started.append(asyncio.get_running_loop().time())
            out = await fetch_with_retry(
                origin, "k", 10, RetryPolicy(timeout=timeout, max_retries=0),
                random.Random(0),
            )
            return out, asyncio.get_running_loop().time()

        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.0))
            origin.inject_hangs(2, seconds=5.0)
            started: list = []
            first = asyncio.ensure_future(one(origin, started))
            await asyncio.sleep(0.01)
            second = asyncio.ensure_future(one(origin, started))
            return started, await asyncio.gather(first, second), origin

        started, done, origin = asyncio.run(run())
        for t0, (out, t1) in zip(started, done):
            assert not out.ok and out.timeouts == 1
            # Never before its own deadline, and not held to a later one.
            assert timeout - 1e-3 <= out.elapsed < timeout + 0.2
            assert timeout - 1e-3 <= t1 - t0 < timeout + 0.2
        assert done[1][1] > done[0][1]
        assert origin.inflight == 0

    def test_short_timeout_fires_beside_a_long_attempt(self):
        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.0))
            origin.inject_hangs(2, seconds=5.0)
            rng = random.Random(0)
            long = asyncio.ensure_future(
                fetch_with_retry(origin, "a", 10, RetryPolicy(timeout=0.5, max_retries=0), rng)
            )
            await asyncio.sleep(0.005)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            short = await fetch_with_retry(
                origin, "b", 10, RetryPolicy(timeout=0.02, max_retries=0), rng
            )
            waited = loop.time() - t0
            still_waiting = not long.done()
            long.cancel()
            with pytest.raises(asyncio.CancelledError):
                await long
            return short, waited, still_waiting, origin

        short, waited, still_waiting, origin = asyncio.run(run())
        assert not short.ok and short.timeouts == 1
        assert waited < 0.25 and still_waiting
        assert origin.inflight == 0


class TestDeadlineQueue:
    def test_zero_latency_fetches_arm_at_most_two_timers(self):
        async def run():
            loop = asyncio.get_running_loop()
            armed = []
            call_at, call_later = loop.call_at, loop.call_later

            def counting_call_at(when, callback, *args, **kw):
                armed.append(callback)
                return call_at(when, callback, *args, **kw)

            def counting_call_later(delay, callback, *args, **kw):
                armed.append(callback)
                return call_later(delay, callback, *args, **kw)

            loop.call_at, loop.call_later = counting_call_at, counting_call_later
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.0))
            retry, rng = RetryPolicy(timeout=0.5), random.Random(0)
            outs = [await fetch_with_retry(origin, i, 1, retry, rng) for i in range(1_000)]
            return armed, outs

        armed, outs = asyncio.run(run())
        assert all(out.ok for out in outs)
        assert len(armed) <= 2

    def test_no_loop_outlives_its_run(self):
        refs = []

        async def run():
            refs.append(weakref.ref(asyncio.get_running_loop()))
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.0))
            origin.inject_hangs(1, seconds=5.0)
            rng = random.Random(0)
            hung = await fetch_with_retry(
                origin, "a", 1, RetryPolicy(timeout=0.02, max_retries=0), rng
            )
            # Leaves a deadline armed on the loop as asyncio.run returns.
            ok = await fetch_with_retry(origin, "b", 1, RetryPolicy(timeout=0.5), rng)
            return hung, ok

        hung, ok = asyncio.run(run())
        assert hung.timeouts == 1 and ok.ok
        gc.collect()
        assert refs[0]() is None
