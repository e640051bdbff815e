"""Serve-side result records: per-request outcomes, the shared metrics
bundle, and ``BENCH_serve.json``'s results block.

The metrics bundle is a thin façade over a :class:`repro.obs.metrics.
MetricsRegistry` — the same instrument vocabulary the engine and the TDC
monitor use — so a serve run snapshots into the exact shape the obs sinks
and the CLI already render.  Latency histograms are the obs log2
``Histogram`` observed in **microseconds** (integer buckets cover 1 µs …
~70 min, plenty for a simulated origin).

``BENCH_serve.json`` is a :class:`repro.bench.BenchResult` like every
other bench artifact; :data:`SERVE_BENCH_SCHEMA` versions the results
block :func:`build_serve_results` assembles.
"""

from __future__ import annotations

from typing import Optional

from repro.bench import BenchResult
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "SERVE_BENCH_SCHEMA",
    "ServeOutcome",
    "ServeMetrics",
    "latency_summary",
    "build_serve_results",
    "format_serve_doc",
]

#: Version of ``BENCH_serve.json``'s results block; bump on breaking changes.
SERVE_BENCH_SCHEMA = 1


class ServeOutcome:
    """What one ``service.get`` call resolved to.

    Attributes
    ----------
    hit:
        Cache decision (metadata residency at lookup time) — bit-comparable
        with :meth:`repro.cache.base.CachePolicy.request`.
    coalesced:
        The request waited on another request's origin fetch instead of
        issuing its own (miss-follower or hit-on-in-flight-body).
    shed:
        The request was rejected at admission because the shard already
        held ``queue_depth`` unanswered requests; it never reached the
        policy (``hit`` is ``False``).
    error:
        Terminal origin-fetch error string after all retries, or ``None``.
    shard:
        Index of the shard that served (or shed) the request.
    """

    __slots__ = ("hit", "coalesced", "shed", "error", "shard")

    def __init__(
        self,
        hit: bool,
        coalesced: bool = False,
        shed: bool = False,
        error: Optional[str] = None,
        shard: int = 0,
    ):
        self.hit = hit
        self.coalesced = coalesced
        self.shed = shed
        self.error = error
        self.shard = shard

    @property
    def ok(self) -> bool:
        return not self.shed and self.error is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "".join(
            f for f, on in (("H", self.hit), ("C", self.coalesced), ("S", self.shed)) if on
        )
        return f"ServeOutcome({flags or 'M'}, error={self.error!r}, shard={self.shard})"


class ServeMetrics:
    """Shared serve instruments, created once per service from a registry.

    All shards of a service feed the same instruments (one event loop —
    no contention); per-shard detail that matters (shed) is labelled.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.requests = r.counter("serve_requests")
        self.hits = r.counter("serve_hits")
        self.misses = r.counter("serve_misses")
        self.shed = r.counter("serve_shed")
        self.coalesced = r.counter("serve_coalesced_waits")
        self.errors = r.counter("serve_errors")
        self.unhandled = r.counter("serve_unhandled_exceptions")
        self.origin_fetches = r.counter("origin_fetches")
        self.origin_retries = r.counter("origin_retries")
        self.origin_timeouts = r.counter("origin_timeouts")
        self.origin_failures = r.counter("origin_failures")
        self.latency_us = r.histogram("serve_latency_us")
        # Shed/error requests land here, not in latency_us: a shed resolves
        # in microseconds and a terminal failure after retries takes
        # seconds — either pollutes the success distribution it isn't in.
        self.degraded_latency_us = r.histogram("serve_degraded_latency_us")
        self.origin_latency_us = r.histogram("origin_latency_us")
        self.queue_depth = r.histogram("serve_queue_depth")

    def shard_shed(self, shard_id: int):
        """Per-shard shed counter (labelled); also bump :attr:`shed`."""
        return self.registry.counter("serve_shed_by_shard", shard=str(shard_id))

    def snapshot(self) -> dict:
        return self.registry.snapshot()


def latency_summary(hist: Histogram) -> dict:
    """Render a µs-observed histogram as the doc's latency block."""
    return {
        "count": hist.count,
        "sum_us": hist.sum,
        "mean_us": hist.mean,
        "min_us": hist.min,
        "max_us": hist.max,
        "p50_us": hist.quantile(0.5),
        "p90_us": hist.quantile(0.9),
        "p99_us": hist.quantile(0.99),
    }


def build_serve_results(
    loadgen: dict,
    metrics: ServeMetrics,
    origin_stats: dict,
    flight: dict,
    policy_stats: dict,
    stampede: Optional[dict] = None,
    tracing: Optional[dict] = None,
) -> dict:
    """Assemble ``BENCH_serve.json``'s results block from run pieces."""
    doc = {
        "loadgen": dict(loadgen),
        "cache": dict(policy_stats),
        "origin": {
            **origin_stats,
            "retries": metrics.origin_retries.value,
            "timeouts": metrics.origin_timeouts.value,
            "terminal_failures": metrics.origin_failures.value,
            "coalesced_waits": metrics.coalesced.value,
            "generations": flight.get("generations", 0),
        },
        "shed": metrics.shed.value,
        "errors": metrics.errors.value,
        "unhandled_exceptions": metrics.unhandled.value,
        "latency": latency_summary(metrics.latency_us),
        "degraded_latency": latency_summary(metrics.degraded_latency_us),
        "origin_latency": latency_summary(metrics.origin_latency_us),
        "registry": metrics.snapshot(),
    }
    if stampede is not None:
        doc["stampede"] = dict(stampede)
    if tracing is not None:
        doc["tracing"] = tracing
    return doc


def format_serve_doc(doc: BenchResult) -> str:
    """Human-readable summary of one serve-bench document."""
    cfg, res = doc.config, doc.results
    lg = res["loadgen"]
    lat = res["latency"]
    origin = res["origin"]
    lines = [
        (
            f"serve bench — {cfg.get('workload', '?')} × {lg['requests']:,} requests, "
            f"{cfg.get('n_shards', '?')} shards × depth {cfg.get('queue_depth', '?')}, "
            f"concurrency {cfg.get('concurrency', '?')}, policy {cfg.get('policy', '?')}"
        ),
        (
            f"throughput {lg['throughput_rps']:,.0f} req/s · hit ratio "
            f"{lg['hit_ratio']:.4f} · elapsed {lg['elapsed_s']:.2f} s"
        ),
        (
            f"latency µs: p50 {lat['p50_us']:,.0f}  p90 {lat['p90_us']:,.0f}  "
            f"p99 {lat['p99_us']:,.0f}  mean {lat['mean_us']:,.0f}"
        ),
        (
            f"origin: {origin['fetches_started']:,} attempts over "
            f"{origin['generations']:,} generations · {origin['coalesced_waits']:,} "
            f"coalesced waits · {origin['retries']:,} retries "
            f"({origin['timeouts']:,} timeouts, {origin['terminal_failures']:,} terminal)"
        ),
        (
            f"shed {res['shed']:,} · errors {res['errors']:,} · "
            f"unhandled exceptions {res['unhandled_exceptions']:,}"
        ),
    ]
    if "stampede" in res:
        st = res["stampede"]
        lines.append(
            f"stampede probe: {st['clients']:,} clients → {st['origin_fetches']:,} "
            f"origin fetch(es), {st['coalesced']:,} coalesced"
        )
    if "tracing" in res:
        tr = res["tracing"]
        ts = tr.get("traces", {})
        lines.append(
            f"tracing: sample {ts.get('sample')} · kept "
            f"{ts.get('traces_kept', 0):,}/{ts.get('traces_started', 0):,} traces "
            f"({ts.get('spans_written', 0):,} spans, "
            f"{ts.get('orphan_spans', 0)} orphans)"
            + (f" → {tr['span_out']}" if tr.get("span_out") else "")
        )
        stages = tr.get("stages", {})
        if stages:
            total_crit = sum(s["critical_total_us"] for s in stages.values())
            top = sorted(
                stages.items(), key=lambda kv: -kv[1]["critical_total_us"]
            )[:4]
            if total_crit > 0:
                lines.append(
                    "critical path: "
                    + " · ".join(
                        f"{name} {s['critical_total_us'] / total_crit * 100:.0f}%"
                        for name, s in top
                    )
                )
    return "\n".join(lines)
