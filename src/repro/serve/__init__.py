"""``repro.serve`` — the concurrent serving layer over the paper's policies.

Everything else in the repo *replays* traces; this package *serves* them:
an asyncio cache service that fronts N key-sharded policy instances (each
decided in the caller as one synchronous block, so SCIP's learner state
needs no locks),
with single-flight origin-fetch coalescing, a simulated origin backend
(latency distribution, bounded concurrency, timeouts, retry with jittered
backoff, fault injection), a per-shard bound on unanswered requests with
load shedding,
and a closed-loop load generator reporting throughput / hit ratio /
latency percentiles into the shared :mod:`repro.obs` instruments.

Quick tour::

    from repro.core import SCIPCache
    from repro.serve import CacheService, OriginConfig, SimulatedOrigin, run_loadgen

    service = CacheService(SCIPCache, capacity, n_shards=4,
                           origin=SimulatedOrigin(OriginConfig(latency_mean=0.005)))
    async with service:
        summary = await run_loadgen(service, trace.requests, concurrency=64)

CLI: ``python -m repro bench serve`` runs service + loadgen in one process
and writes ``BENCH_serve.json``.  Design notes: ``docs/serve_design.md``.
"""

from repro.serve.coalesce import SingleFlight
from repro.serve.loadgen import (
    Pacer,
    run_loadgen,
    run_serve_bench,
    serve_bench_async,
    stampede_probe,
)
from repro.serve.origin import (
    FetchOutcome,
    OriginConfig,
    OriginError,
    RetryPolicy,
    SimulatedOrigin,
    fetch_with_retry,
)
from repro.serve.results import (
    SERVE_BENCH_SCHEMA,
    ServeMetrics,
    ServeOutcome,
    build_serve_results,
    format_serve_doc,
)
from repro.serve.service import CacheService
from repro.serve.shard import CacheShard

__all__ = [
    "SingleFlight",
    "Pacer",
    "run_loadgen",
    "run_serve_bench",
    "serve_bench_async",
    "stampede_probe",
    "FetchOutcome",
    "OriginConfig",
    "OriginError",
    "RetryPolicy",
    "SimulatedOrigin",
    "fetch_with_retry",
    "SERVE_BENCH_SCHEMA",
    "ServeMetrics",
    "ServeOutcome",
    "build_serve_results",
    "format_serve_doc",
    "CacheService",
    "CacheShard",
]
