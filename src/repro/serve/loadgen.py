"""Closed-loop load generator for :class:`~repro.serve.service.CacheService`.

``concurrency`` client coroutines share one iterator over the trace: each
client issues a request, awaits its outcome, records latency, and takes
the next request — classic closed-loop load, where offered concurrency
(not arrival rate) is the control knob.  An optional ``rate`` adds an
arrival-time pacer in front of the clients, so the same harness can probe
"what happens at 5 000 req/s" instead of "what happens with 64 clients".

``run_serve_bench`` is the one-process serve+loadgen entry (``repro
bench serve``): build the workload, the origin, the service; optionally
fire a deterministic **stampede probe** (every client hammering one cold
sentinel key — the single-flight acceptance check); drive the trace;
assemble the ``BENCH_serve.json`` document.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from repro.bench import BenchResult, bench_result
from repro.serve.origin import OriginConfig, RetryPolicy, SimulatedOrigin
from repro.serve.results import SERVE_BENCH_SCHEMA, build_serve_results
from repro.serve.service import CacheService
from repro.sim.request import Request

__all__ = ["Pacer", "run_loadgen", "stampede_probe", "serve_bench_async", "run_serve_bench"]

#: Sentinel key used by the stampede probe — outside every synthetic
#: workload's keyspace (generators emit non-negative keys).
STAMPEDE_KEY = -7


class Pacer:
    """Fixed-rate arrival scheduler shared by all clients.

    Each ``wait`` claims the next slot on an ideal arrival timeline and
    sleeps until it; when the service falls behind, slots in the past
    return immediately (the backlog shows up as queueing/shedding, exactly
    like a saturated real deployment).
    """

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.interval = 1.0 / rate
        self._next_t: Optional[float] = None

    async def wait(self) -> None:
        loop = asyncio.get_running_loop()
        if self._next_t is None:
            self._next_t = loop.time()
        slot = self._next_t
        self._next_t = slot + self.interval
        delay = slot - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)


async def run_loadgen(
    service: CacheService,
    requests,
    concurrency: int = 32,
    rate: Optional[float] = None,
    decisions: Optional[list] = None,
    tracer=None,
) -> dict:
    """Drive ``requests`` through the service with ``concurrency`` clients.

    Parameters
    ----------
    service:
        A **started** :class:`CacheService`.
    requests:
        Iterable of :class:`~repro.sim.request.Request` (a ``Trace`` works).
    concurrency:
        Number of closed-loop client coroutines.
    rate:
        Optional target arrival rate, requests/second (``None`` = as fast
        as the closed loop allows).
    decisions:
        Optional list collecting per-request hit/miss booleans in
        completion order.  Only with ``concurrency=1`` is that trace order
        — the engine-equivalence tests rely on exactly that configuration.
    tracer:
        Optional :class:`repro.obs.span.Tracer`; when given, every request
        gets a root ``request`` span threaded through the service (ended
        with status ``ok`` / ``shed`` / ``error``).  ``None`` keeps the
        path entirely trace-free.

    Latency accounting: successful requests land in ``serve_latency_us``;
    shed and error outcomes land in ``serve_degraded_latency_us`` instead,
    so the success distribution isn't polluted by microsecond sheds or
    multi-second retry failures.

    Returns the ``loadgen`` block of ``BENCH_serve.json``'s results.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    it = iter(requests)
    pacer = Pacer(rate) if rate is not None else None
    latency_us = service.metrics.latency_us
    degraded_us = service.metrics.degraded_latency_us
    counts = {"requests": 0, "hits": 0, "shed": 0, "errors": 0, "coalesced": 0}

    async def client() -> None:
        # ``next(it)`` is atomic (no await point), so clients never observe
        # a torn iterator even though they share it.
        for req in it:
            if pacer is not None:
                await pacer.wait()
            span = (
                tracer.start_trace("request", key=req.key)
                if tracer is not None
                else None
            )
            t0 = time.perf_counter_ns()
            out = await service.get(req, span)
            dt_us = (time.perf_counter_ns() - t0) // 1000
            if span is not None:
                span.end(
                    "shed" if out.shed else ("error" if out.error is not None else "ok"),
                    hit=out.hit,
                    shard=out.shard,
                )
            counts["requests"] += 1
            if out.shed:
                counts["shed"] += 1
            else:
                if out.hit:
                    counts["hits"] += 1
                if decisions is not None:
                    decisions.append(out.hit)
            if out.coalesced:
                counts["coalesced"] += 1
            if out.error is not None:
                counts["errors"] += 1
            if out.shed or out.error is not None:
                degraded_us.observe(dt_us)
            else:
                latency_us.observe(dt_us)

    t0 = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    elapsed = time.perf_counter() - t0
    served = counts["requests"] - counts["shed"]
    return {
        "requests": counts["requests"],
        "served": served,
        "hits": counts["hits"],
        "hit_ratio": counts["hits"] / served if served else 0.0,
        "shed": counts["shed"],
        "errors": counts["errors"],
        "coalesced": counts["coalesced"],
        "concurrency": concurrency,
        "rate_target": rate,
        "elapsed_s": elapsed,
        "throughput_rps": counts["requests"] / elapsed if elapsed > 0 else float("inf"),
    }


async def stampede_probe(
    service: CacheService, clients: int, key=STAMPEDE_KEY, size: int = 100_000
) -> dict:
    """Fire ``clients`` concurrent requests at one cold key.

    The acceptance check for single-flight: the origin must see exactly
    one fetch for the key's generation, with every other request coalesced
    (either as a miss-follower or as a metadata hit on the in-flight body).
    """
    before = service.origin.fetches_started
    reqs = [Request(0, key, size) for _ in range(clients)]
    outcomes = await asyncio.gather(*(service.get(r) for r in reqs))
    return {
        "clients": clients,
        "origin_fetches": service.origin.fetches_started - before,
        "coalesced": sum(1 for o in outcomes if o.coalesced),
        "hits": sum(1 for o in outcomes if o.hit),
        "shed": sum(1 for o in outcomes if o.shed),
        "errors": sum(1 for o in outcomes if o.error is not None),
    }


async def serve_bench_async(
    policy: str = "SCIP",
    workload: str = "CDN-T",
    n_requests: int = 50_000,
    fraction: float = 0.02,
    n_shards: int = 4,
    concurrency: int = 64,
    queue_depth: int = 256,
    rate: Optional[float] = None,
    origin_latency: float = 0.002,
    origin_concurrency: int = 64,
    failure_rate: float = 0.0,
    timeout: Optional[float] = 0.5,
    max_retries: int = 3,
    stampede_clients: Optional[int] = None,
    seed: int = 0,
    trace_sample: float = 0.0,
    span_out: Optional[str] = None,
    tail_latency_us: Optional[float] = None,
) -> BenchResult:
    """Build service + workload, run the bench, return its document.

    Tracing is opt-in: ``trace_sample > 0`` (or a ``span_out`` path)
    attaches a :class:`repro.obs.span.Tracer` to the load generator —
    head-sampled at ``trace_sample`` with tail-keep for shed/error/slow
    traces (``tail_latency_us`` defaults to 5× the origin's mean latency)
    — and embeds the per-stage breakdown + SLO accounting in the doc.
    """
    from repro.cache.registry import resolve_policy
    from repro.traces.cdn import make_workload

    factory = resolve_policy(policy)
    trace = make_workload(workload, n_requests=n_requests)
    capacity = max(int(trace.working_set_size * fraction), n_shards)
    origin = SimulatedOrigin(
        OriginConfig(
            latency_mean=origin_latency,
            concurrency=origin_concurrency,
            failure_rate=failure_rate,
            seed=seed,
        )
    )
    retry = RetryPolicy(timeout=timeout, max_retries=max_retries)
    service = CacheService(
        factory,
        capacity,
        n_shards=n_shards,
        origin=origin,
        retry=retry,
        queue_depth=queue_depth,
        seed=seed,
    )
    config = {
        "policy": policy,
        "workload": workload,
        "n_requests": n_requests,  # the budget asked for: generators realise fewer
        "cache_fraction": fraction,
        "capacity_bytes": capacity,
        "n_shards": n_shards,
        "concurrency": concurrency,
        "queue_depth": queue_depth,
        "rate": rate,
        "origin_latency_s": origin_latency,
        "origin_concurrency": origin_concurrency,
        "failure_rate": failure_rate,
        "timeout_s": timeout,
        "max_retries": max_retries,
        "seed": seed,
    }
    tracer = None
    slo = None
    if trace_sample > 0.0 or span_out is not None:
        from repro.obs.span import SLO, SLOTracker, SpanSink, TraceConfig, Tracer

        if tail_latency_us is None:
            tail_latency_us = max(origin_latency * 5e6, 1000.0)
        slo = SLOTracker(
            [
                SLO("request", latency_us=tail_latency_us, target=0.99),
                SLO(
                    "origin_fetch",
                    latency_us=max(origin_latency * 2e6, 1000.0),
                    target=0.95,
                ),
            ],
            registry=service.metrics.registry,
        )
        tracer = Tracer(
            sinks=[SpanSink(span_out)] if span_out is not None else [],
            config=TraceConfig(
                sample=trace_sample, tail_latency_us=tail_latency_us, seed=seed
            ),
            registry=service.metrics.registry,
            slo=slo,
        )
        config["trace_sample"] = trace_sample
        config["tail_latency_us"] = tail_latency_us
    async with service:
        stampede = None
        if stampede_clients is None:
            stampede_clients = concurrency
        if stampede_clients > 1:
            stampede = await stampede_probe(service, stampede_clients)
        loadgen = await run_loadgen(
            service, trace.requests, concurrency=concurrency, rate=rate, tracer=tracer
        )
    tracing = None
    if tracer is not None:
        tracer.close()
        tracing = {
            "traces": tracer.stats(),
            "stages": tracer.stage_breakdown(),
            "slo": slo.summary() if slo is not None else None,
            "span_out": span_out,
        }
    results = build_serve_results(
        loadgen=loadgen,
        metrics=service.metrics,
        origin_stats=origin.stats(),
        flight=service.flight_stats(),
        policy_stats=service.cache_stats(),
        stampede=stampede,
        tracing=tracing,
    )
    return bench_result("serve", SERVE_BENCH_SCHEMA, config, results, trace=trace, seed=seed)


def run_serve_bench(quick: bool = False, **kwargs) -> BenchResult:
    """Synchronous entry: :func:`serve_bench_async` under ``asyncio.run``.

    ``quick`` is the CI smoke shape: a small heavy-reuse workload with a
    visible-latency origin, so coalescing provably fires in seconds.
    """
    if quick:
        kwargs.setdefault("workload", "CDN-W")  # heavy reuse → coalescing fires
        kwargs["n_requests"] = min(kwargs.get("n_requests", 20_000), 20_000)
        kwargs.setdefault("origin_latency", 0.002)  # in-flight window is visible
        kwargs.setdefault("concurrency", 64)
    return asyncio.run(serve_bench_async(**kwargs))
