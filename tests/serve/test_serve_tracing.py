"""Serve-layer tracing: span topology through the shard pipeline, the
critical-path/e2e reconciliation acceptance check, degraded-latency
separation, and the traced bench doc."""

from __future__ import annotations

import asyncio

import pytest

from repro.cache.lru import LRUCache
from repro.obs.sinks import RingBufferSink
from repro.obs.span import TraceConfig, Tracer
from repro.serve import (
    CacheService,
    OriginConfig,
    RetryPolicy,
    SimulatedOrigin,
    run_loadgen,
    serve_bench_async,
)
from repro.sim.request import Request


def _service(**kw):
    kw.setdefault(
        "origin", SimulatedOrigin(OriginConfig(latency_mean=kw.pop("latency", 0.001)))
    )
    kw.setdefault("retry", RetryPolicy(timeout=0.5, max_retries=1, backoff_base=0.001))
    kw.setdefault("n_shards", 1)
    capacity = kw.pop("capacity", 1_000_000)
    return CacheService(LRUCache, capacity, **kw)


def _by_trace(sink):
    out = {}
    for rec in sink.as_list():
        out.setdefault(rec["trace"], []).append(rec)
    return out


class TestSpanTopology:
    def test_miss_leader_gets_origin_fetch_not_flight_wait(self):
        async def run():
            sink = RingBufferSink()
            tracer = Tracer(sinks=[sink])
            service = _service()
            async with service:
                root = tracer.start_trace("request", key=1)
                await service.get(Request(0, 1, 100), root)
                root.end()
            tracer.close()
            return _by_trace(sink)

        traces = asyncio.run(run())
        (records,) = traces.values()
        names = {r["name"] for r in records}
        assert {"request", "queue_wait", "policy", "origin_fetch",
                "origin_attempt"} <= names
        assert "flight_wait" not in names  # the leader fetches, never waits
        fetch = next(r for r in records if r["name"] == "origin_fetch")
        assert fetch["tags"]["attempts"] == 1
        attempt = next(r for r in records if r["name"] == "origin_attempt")
        assert attempt["parent"] == fetch["span"]

    def test_concurrent_followers_get_flight_wait(self):
        async def run():
            sink = RingBufferSink()
            tracer = Tracer(sinks=[sink])
            service = _service(latency=0.01)
            async with service:
                roots = [tracer.start_trace("request", n=i) for i in range(4)]
                outs = await asyncio.gather(
                    *(service.get(Request(0, 5, 100), s) for s in roots)
                )
                for root in roots:
                    root.end()
            tracer.close()
            return _by_trace(sink), outs

        traces, outs = asyncio.run(run())
        assert len(traces) == 4
        waits = [
            t for t in traces.values() if any(r["name"] == "flight_wait" for r in t)
        ]
        fetches = [
            t for t in traces.values() if any(r["name"] == "origin_fetch" for r in t)
        ]
        assert len(fetches) == 1  # single-flight: one leader
        assert len(waits) == 3  # everyone else coalesces onto the flight

    def test_shed_request_span_ends_with_shed_status(self):
        async def run():
            sink = RingBufferSink()
            tracer = Tracer(sinks=[sink])
            service = _service(queue_depth=2, latency=0.01)
            async with service:
                roots = [tracer.start_trace("request", n=i) for i in range(20)]
                outs = await asyncio.gather(
                    *(service.get(Request(0, i, 100), s)
                      for i, s in enumerate(roots))
                )
                for out, root in zip(outs, roots):
                    root.end("shed" if out.shed else "ok")
            tracer.close()
            return _by_trace(sink), outs

        traces, outs = asyncio.run(run())
        shed = [o for o in outs if o.shed]
        assert shed  # the tiny queue must shed under this burst
        shed_q = [
            r
            for t in traces.values()
            for r in t
            if r["name"] == "queue_wait" and r["status"] == "shed"
        ]
        assert len(shed_q) == len(shed)

    def test_untraced_path_passes_none_everywhere(self):
        async def run():
            service = _service()
            async with service:
                out = await service.get(Request(0, 1, 100))
            return out

        out = asyncio.run(run())
        assert out.error is None and not out.shed


class TestTimeoutReconciles:
    def test_hang_and_follower_reconcile_in_the_stages(self):
        """One attempt hangs past its deadline while a follower waits on
        the flight: the timeout is one span and one count, and the stages'
        critical totals still add up to the requests' wall time."""

        async def run():
            sink = RingBufferSink()
            tracer = Tracer(sinks=[sink])
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.001))
            origin.inject_hangs(1, seconds=5.0)
            service = _service(
                origin=origin,
                retry=RetryPolicy(timeout=0.02, max_retries=2, backoff_base=0.001),
            )
            async with service:
                roots = [tracer.start_trace("request", n=i) for i in range(2)]
                outs = await asyncio.gather(
                    *(service.get(Request(0, 7, 100), s) for s in roots)
                )
                for root in roots:
                    root.end()
            tracer.close()
            return sink, tracer, service, outs

        sink, tracer, service, outs = asyncio.run(run())
        assert all(out.error is None for out in outs)
        assert [out.coalesced for out in outs] == [False, True]
        attempts = [r for r in sink.as_list() if r["name"] == "origin_attempt"]
        assert [r["status"] for r in attempts].count("timeout") == 1
        assert service.metrics.origin_timeouts.value == 1
        assert service.unhandled_exceptions == 0
        stages = tracer.stage_breakdown()
        assert stages["flight_wait"]["count"] == 1
        crit_sum_us = sum(s["critical_total_us"] for s in stages.values())
        assert crit_sum_us == pytest.approx(stages["request"]["total_us"], rel=1e-9)


class TestTracedBench:
    def test_critical_path_reconciles_with_e2e_latency(self):
        """Acceptance: summed critical-path stage time ≈ summed e2e latency
        (within 5%).  Spans time the same wall-clock interval the loadgen
        histogram does, so the per-stage attribution must re-assemble it."""
        doc = asyncio.run(
            serve_bench_async(
                workload="CDN-W",
                n_requests=4_000,
                concurrency=32,
                n_shards=2,
                origin_latency=0.002,
                seed=11,
                trace_sample=1.0,
            )
        ).results
        tracing = doc["tracing"]
        assert tracing["traces"]["orphan_spans"] == 0
        assert tracing["traces"]["unclosed_spans"] == 0
        crit_sum_us = sum(
            s["critical_total_us"] for s in tracing["stages"].values()
        )
        # e2e wall time: every request's latency, success or degraded.
        e2e_us = doc["latency"]["sum_us"] + doc["degraded_latency"]["sum_us"]
        assert crit_sum_us == pytest.approx(e2e_us, rel=0.05)

    def test_sampling_still_aggregates_everything(self):
        doc = asyncio.run(
            serve_bench_async(
                workload="CDN-W",
                n_requests=1_500,
                concurrency=16,
                n_shards=2,
                origin_latency=0.001,
                seed=3,
                trace_sample=0.05,
            )
        ).results
        tracing = doc["tracing"]
        stats = tracing["traces"]
        assert stats["traces_started"] == doc["loadgen"]["requests"]
        assert stats["traces_kept"] < stats["traces_started"]
        # Aggregation is sampling-independent: every request has a span.
        assert tracing["stages"]["request"]["count"] == stats["traces_finished"]

    def test_slo_summary_present_and_sane(self):
        doc = asyncio.run(
            serve_bench_async(
                workload="CDN-W",
                n_requests=1_000,
                concurrency=16,
                n_shards=1,
                origin_latency=0.001,
                seed=5,
                trace_sample=1.0,
            )
        ).results
        slo = doc["tracing"]["slo"]
        assert "request" in slo and "origin_fetch" in slo
        req = slo["request"]
        assert req["total"] == doc["loadgen"]["requests"]
        assert 0.0 <= req["breach_ratio"] <= 1.0

    def test_tracing_off_leaves_doc_untouched(self):
        doc = asyncio.run(
            serve_bench_async(
                workload="CDN-W",
                n_requests=800,
                concurrency=8,
                n_shards=1,
                origin_latency=0.001,
                trace_sample=0.0,
            )
        ).results
        assert "tracing" not in doc


class TestDegradedLatency:
    def test_shed_latency_lands_in_degraded_histogram(self):
        async def run():
            service = _service(queue_depth=2, latency=0.01)
            async with service:
                reqs = [Request(0, i, 100) for i in range(30)]
                await run_loadgen(service, reqs, concurrency=30)
                return (
                    service.metrics.latency_us.count,
                    service.metrics.degraded_latency_us.count,
                )

        ok_count, degraded_count = asyncio.run(run())
        assert degraded_count > 0  # sheds happened and were recorded apart
        assert ok_count + degraded_count == 30
