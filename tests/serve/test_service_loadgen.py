"""Service-level behaviour: backpressure/shedding, worker resilience,
probe wiring, the closed-loop load generator, and the bench document.
"""

from __future__ import annotations

import asyncio
import json

from repro.bench import write_bench_doc
from repro.cache.base import CachePolicy
from repro.cache.lru import LRUCache
from repro.obs.probe import Probe
from repro.obs.sinks import RingBufferSink
from repro.serve import (
    CacheService,
    OriginConfig,
    Pacer,
    RetryPolicy,
    SERVE_BENCH_SCHEMA,
    SimulatedOrigin,
    format_serve_doc,
    run_loadgen,
    run_serve_bench,
)
from repro.sim.request import Request

import pytest


def _service(**kw):
    kw.setdefault("origin", SimulatedOrigin(OriginConfig(latency_mean=kw.pop("latency", 0.001))))
    kw.setdefault("retry", RetryPolicy(timeout=0.5, max_retries=1, backoff_base=0.001))
    kw.setdefault("n_shards", 1)
    capacity = kw.pop("capacity", 1_000_000)
    return CacheService(LRUCache, capacity, **kw)


class TestBackpressure:
    def test_overflow_beyond_queue_depth_is_shed(self):
        """A burst larger than the queue bound sheds the excess: counted,
        resolved immediately, and invisible to the policy."""

        async def run():
            service = _service(queue_depth=8, latency=0.005)
            async with service:
                outs = await asyncio.gather(
                    *(service.get(Request(0, i, 100)) for i in range(30))
                )
            return outs, service

        outs, service = asyncio.run(run())
        shed = [o for o in outs if o.shed]
        served = [o for o in outs if not o.shed]
        # All 30 gets enqueue before the worker runs once, so exactly the
        # overflow beyond the bound is rejected.
        assert len(shed) == 30 - 8
        assert len(served) == 8
        assert service.metrics.shed.value == 22
        assert all(not o.hit and o.error is None for o in shed)
        # Shed requests never reached the policy.
        assert service.cache_stats()["requests"] == 8
        # The labelled per-shard counter agrees with the aggregate.
        assert (
            service.metrics.registry.counter("serve_shed_by_shard", shard="0").value == 22
        )

    def test_unbounded_queue_never_sheds(self):
        async def run():
            service = _service(queue_depth=0, latency=0.002)
            async with service:
                outs = await asyncio.gather(
                    *(service.get(Request(0, i, 100)) for i in range(200))
                )
            return outs

        outs = asyncio.run(run())
        assert not any(o.shed for o in outs)


class TestWorkerResilience:
    def test_policy_exception_degrades_one_request_not_the_shard(self):
        class BombPolicy(CachePolicy):
            name = "bomb"

            def __init__(self, capacity):
                super().__init__(capacity)
                self.calls = 0

            def _lookup(self, key):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("boom")
                return False

            def _hit(self, req):
                pass

            def _miss(self, req):
                pass

            def __len__(self):
                return 0

        async def run():
            service = CacheService(
                BombPolicy,
                1_000_000,
                n_shards=1,
                origin=SimulatedOrigin(OriginConfig(latency_mean=0.0)),
                retry=RetryPolicy(timeout=None, max_retries=0),
            )
            async with service:
                first = await service.get(Request(0, 1, 10))
                second = await service.get(Request(1, 2, 10))  # the bomb
                third = await service.get(Request(2, 3, 10))
            return first, second, third, service

        first, second, third, service = asyncio.run(run())
        assert first.error is None and third.error is None
        assert second.error is not None and "boom" in second.error
        assert service.unhandled_exceptions == 1

    def test_get_before_start_raises(self):
        async def run():
            service = _service()
            with pytest.raises(RuntimeError, match="before start"):
                await service.get(Request(0, 1, 10))

        asyncio.run(run())

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_shards"):
            _service(n_shards=0)
        with pytest.raises(ValueError, match="split"):
            CacheService(LRUCache, 2, n_shards=4)


class TestProbeWiring:
    def test_serve_events_reach_the_sink(self):
        ring = RingBufferSink(maxlen=256)
        probe = Probe([ring])

        async def run():
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.004))
            # 4 served keys × (1 attempt + 1 retry) — every fetch retries
            # once and then fails terminally.
            origin.inject_failures(8)
            service = _service(
                origin=origin,
                retry=RetryPolicy(timeout=0.5, max_retries=1, backoff_base=0.001),
                queue_depth=4,
                probe=probe,
            )
            async with service:
                await asyncio.gather(
                    *(service.get(Request(0, i, 100)) for i in range(10))
                )
            return service

        asyncio.run(run())
        events = {rec["event"] for rec in ring.as_list()}
        assert "fetch" in events
        assert "fetch_retry" in events
        assert "fetch_error" in events
        assert "shed" in events


class TestLoadgen:
    def test_pacer_enforces_arrival_rate(self):
        async def run():
            service = _service(latency=0.0, retry=RetryPolicy(timeout=None, max_retries=0))
            reqs = [Request(i, i % 5, 100) for i in range(40)]
            async with service:
                summary = await run_loadgen(service, reqs, concurrency=4, rate=2_000)
            return summary

        summary = asyncio.run(run())
        assert summary["requests"] == 40
        # 40 requests at 2 kHz need ≥ ~20 ms of schedule.
        assert summary["elapsed_s"] >= 0.015
        assert summary["rate_target"] == 2_000

    def test_pacer_validates_rate(self):
        with pytest.raises(ValueError, match="rate"):
            Pacer(0)

    def test_loadgen_validates_concurrency(self):
        async def run():
            service = _service()
            async with service:
                with pytest.raises(ValueError, match="concurrency"):
                    await run_loadgen(service, [], concurrency=0)

        asyncio.run(run())

    def test_clients_share_the_trace_exactly_once(self):
        async def run():
            service = _service(latency=0.0005)
            reqs = [Request(i, i, 100) for i in range(100)]  # all unique → all miss
            async with service:
                summary = await run_loadgen(service, reqs, concurrency=16)
            return summary, service

        summary, service = asyncio.run(run())
        assert summary["requests"] == 100
        assert service.cache_stats()["requests"] == 100
        assert service.cache_stats()["misses"] == 100


class TestServeBenchDoc:
    def test_quick_bench_document_shape(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        doc = run_serve_bench(
            quick=True,
            n_requests=3_000,
            n_shards=2,
            concurrency=16,
            origin_latency=0.001,
            timeout=0.5,
        )
        write_bench_doc(doc.as_doc(), str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk["target"] == "serve"
        assert on_disk["target_schema"] == SERVE_BENCH_SCHEMA
        assert on_disk["config"]["n_shards"] == 2
        res = on_disk["results"]
        assert res["unhandled_exceptions"] == 0
        assert res["stampede"]["origin_fetches"] == 1
        assert res["origin"]["coalesced_waits"] > 0
        # config holds the budget asked for (what reproduces the run);
        # the manifest holds the length the generator realised.
        assert on_disk["config"]["n_requests"] == 3_000
        assert res["loadgen"]["requests"] == on_disk["manifest"]["trace"]["requests"]
        assert res["latency"]["count"] > 0
        # The embedded manifest makes the artifact self-describing.
        assert on_disk["manifest"]["schema"] >= 1
        assert on_disk["manifest"]["extra"]["serve_config"]["policy"] == "SCIP"
        # The formatter renders every headline block.
        text = format_serve_doc(doc)
        assert "serve bench" in text and "stampede probe" in text

    def test_bench_rejects_unknown_policy(self):
        with pytest.raises(KeyError, match="unknown policy"):
            run_serve_bench(policy="NOPE", n_requests=100)
