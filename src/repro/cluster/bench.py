"""``repro bench cluster`` — replication vs. node loss, quantified.

One scenario, run once per replication factor on the *same* trace, ring
and fault schedule: a flash-crowd drift trace replayed through the
cluster while the busiest node is killed partway in and restarted (cold)
later.  Three numbers summarise what replication buys:

* **dip depth** — pre-kill baseline hit ratio minus the worst post-kill
  window.  R=1 loses the dead node's whole keyspace slice (every key a
  cold miss at its failover successor); R=2's write-all fills mean the
  successor already holds most of it, so the dip is shallower.
* **recovery time** — requests until a post-kill window climbs back
  within tolerance of the baseline.
* **served-error rate** — requests that errored out of ``ClusterRouter.
  get``; graceful degradation means this stays 0 through kill *and*
  restart (there is always a live owner or the origin).

The resulting ``BENCH_cluster.json`` (results block schema
:data:`CLUSTER_BENCH_SCHEMA`) carries the complete bench configuration —
:func:`repro.bench.config_from_doc` rebuilds the keyword set, and the
tests round-trip it — so the run is reproducible from the artifact alone.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Sequence

from repro.bench import BenchResult, bench_result
from repro.cluster.config import ClusterConfig, build_cluster
from repro.cluster.faults import FaultPlan
from repro.hashring import HashRing
from repro.traces.drift import make_drift_trace

__all__ = [
    "CLUSTER_BENCH_SCHEMA",
    "run_cluster_bench",
    "format_cluster_doc",
]

#: Version of ``BENCH_cluster.json``'s results block; bump on breaking changes.
CLUSTER_BENCH_SCHEMA = 1

#: A post-kill window counts as "recovered" when its hit ratio is back
#: within this absolute tolerance of the pre-kill baseline.
RECOVERY_TOLERANCE = 0.02


def _window_series(flags: Sequence[bool], window: int) -> List[float]:
    """Hit ratio per fixed-size window (the tail partial window dropped)."""
    out = []
    for start in range(0, len(flags) - window + 1, window):
        chunk = flags[start : start + window]
        out.append(sum(chunk) / window)
    return out


def _dip_metrics(series: List[float], window: int, kill_at: int) -> dict:
    """Baseline / dip / recovery read off the windowed hit-ratio series."""
    kill_window = kill_at // window
    # Baseline: the settled pre-kill plateau (skip the cold first half of
    # the pre-kill span so warmup doesn't drag the baseline down).
    pre = series[:kill_window]
    settled = pre[len(pre) // 2 :] if pre else []
    baseline = sum(settled) / len(settled) if settled else 0.0
    post = series[kill_window:]
    min_post = min(post) if post else baseline
    dip = max(baseline - min_post, 0.0)
    recovery: Optional[int] = None
    for i, ratio in enumerate(post):
        if ratio >= baseline - RECOVERY_TOLERANCE:
            # Requests from the kill to the end of the recovered window.
            recovery = (kill_window + i + 1) * window - kill_at
            break
    return {
        "baseline_hit_ratio": baseline,
        "min_post_kill_hit_ratio": min_post,
        "dip_depth": dip,
        "recovery_requests": recovery,
    }


async def _run_scenario(
    config: ClusterConfig,
    trace,
    plan: FaultPlan,
    window: int,
    kill_at: int,
    trace_sample: float = 0.0,
    span_out: Optional[str] = None,
) -> dict:
    router = build_cluster(config)
    tracer = None
    if trace_sample > 0.0 or span_out is not None:
        from repro.obs.span import SpanSink, TraceConfig, Tracer

        tracer = Tracer(
            sinks=[SpanSink(span_out)] if span_out is not None else [],
            config=TraceConfig(sample=trace_sample, seed=config.seed),
            registry=router.metrics.registry,
        )
    hit_flags: List[bool] = []
    served = errors = shed = 0
    async with router:
        for req in trace:
            await router.apply_faults(plan)
            span = (
                tracer.start_trace("request", key=req.key)
                if tracer is not None
                else None
            )
            out = await router.get(req, span)
            if span is not None:
                span.end(
                    "shed" if out.shed else ("error" if out.error else "ok"),
                    served_from=out.served_from,
                )
            if out.shed:
                shed += 1
                continue
            served += 1
            if out.error is not None:
                errors += 1
            hit_flags.append(out.hit)
        stats = router.stats()
    series = _window_series(hit_flags, window)
    doc = {
        "replication": config.replication,
        "requests": stats["requests"],
        "served": served,
        "shed": shed,
        "errors": errors,
        "served_error_rate": errors / served if served else 0.0,
        "hit_ratio": stats["hit_ratio"],
        "failovers": stats["failovers"],
        "origin_direct": stats["origin_direct"],
        "fills": stats["fills"],
        "node_downs": stats["node_downs"],
        "node_ups": stats["node_ups"],
        "unhandled_exceptions": stats["unhandled_exceptions"],
        "window": window,
        "hit_ratio_series": [round(r, 4) for r in series],
    }
    doc.update(_dip_metrics(series, window, kill_at))
    if tracer is not None:
        tracer.close()
        stages = tracer.stage_breakdown()
        doc["tracing"] = {
            "traces": tracer.stats(),
            "stages": stages,
            # Spans are aggregated for every finished trace regardless of
            # sampling, so this count must equal the failovers counter.
            "failover_hop_spans": stages.get("failover_hop", {}).get("count", 0),
            "span_out": span_out,
        }
    return doc


def run_cluster_bench(
    trace: str = "flash",
    n_requests: int = 60_000,
    n_nodes: int = 3,
    policy: str = "LRU",
    fraction: float = 0.1,
    n_shards: int = 1,
    vnodes: int = 64,
    kill_frac: float = 0.4,
    restart_frac: float = 0.7,
    window: int = 2_000,
    replications: Sequence[int] = (1, 2),
    seed: int = 0,
    quick: bool = False,
    trace_sample: float = 0.0,
    span_out: Optional[str] = None,
) -> BenchResult:
    """Run the cluster bench; returns its document.

    Every replication factor replays the identical trace against an
    identical fleet (same total capacity, same ring, same fault schedule)
    — the *only* variable is R, so the dip-depth delta is attributable to
    replication alone.  The victim is the node the ring sends the most
    trace keys to, maximising the failure's blast radius.

    ``trace_sample``/``span_out`` turn on request tracing per scenario
    (see :mod:`repro.obs.span`); with multiple replication factors the
    span path gains an ``.R<r>`` infix so scenarios don't clobber each
    other.  Each scenario doc then embeds the per-stage breakdown and the
    failover-hop span count (which reconciles with its failover counter).
    """
    if quick:
        n_requests = min(n_requests, 24_000)
        window = min(window, 1_000)
    tr = make_drift_trace(trace, n_requests=n_requests, seed=seed)
    capacity = max(int(tr.working_set_size * fraction), n_nodes * n_shards)
    n = len(tr.requests)
    kill_at = int(n * kill_frac)
    restart_at = int(n * restart_frac)

    # Deterministic victim: the node owning the largest share of the trace.
    ring = HashRing([f"n{i}" for i in range(n_nodes)], vnodes=vnodes)
    load = ring.load_distribution([req.key for req in tr.requests])
    victim = max(load, key=lambda node: load[node])

    scenarios = {}
    for r in replications:
        config = ClusterConfig(
            n_nodes=n_nodes,
            replication=r,
            policy=policy,
            capacity_bytes=capacity,
            n_shards=n_shards,
            vnodes=vnodes,
            seed=seed,
        )
        plan = FaultPlan().kill(victim, at=kill_at).restart(victim, at=restart_at)
        scenario_span_out = span_out
        if span_out is not None and len(replications) > 1:
            stem, dot, ext = span_out.partition(".")
            scenario_span_out = f"{stem}.R{r}{dot}{ext}" if dot else f"{span_out}.R{r}"
        scenarios[f"R{r}"] = asyncio.run(
            _run_scenario(
                config,
                tr.requests,
                plan,
                window,
                kill_at,
                trace_sample=trace_sample,
                span_out=scenario_span_out,
            )
        )

    bench_config = {
        "trace": trace,
        "n_requests": n_requests,
        "n_nodes": n_nodes,
        "policy": policy,
        "cache_fraction": fraction,
        "capacity_bytes": capacity,
        "n_shards": n_shards,
        "vnodes": vnodes,
        "kill_frac": kill_frac,
        "restart_frac": restart_frac,
        "window": window,
        "replications": list(replications),
        "victim": victim,
        "kill_at": kill_at,
        "restart_at": restart_at,
        "seed": seed,
    }
    results = {"scenarios": scenarios, "comparison": _compare(scenarios)}
    return bench_result(
        "cluster", CLUSTER_BENCH_SCHEMA, bench_config, results, trace=tr, seed=seed
    )


def _compare(scenarios: dict) -> dict:
    """The acceptance summary across replication factors."""
    dips = {name: s["dip_depth"] for name, s in scenarios.items()}
    comparison = {
        "dip_depth": dips,
        "recovery_requests": {
            name: s["recovery_requests"] for name, s in scenarios.items()
        },
        "served_error_rate": {
            name: s["served_error_rate"] for name, s in scenarios.items()
        },
        "errors_zero": all(s["errors"] == 0 for s in scenarios.values()),
        "unhandled_exceptions_zero": all(
            s["unhandled_exceptions"] == 0 for s in scenarios.values()
        ),
    }
    if "R1" in scenarios and "R2" in scenarios:
        comparison["r2_dip_shallower"] = dips["R2"] < dips["R1"]
        comparison["dip_reduction"] = dips["R1"] - dips["R2"]
    return comparison


def format_cluster_doc(doc: BenchResult) -> str:
    """Human-readable summary of one cluster-bench document."""
    cfg = doc.config
    cmp_ = doc.results["comparison"]
    lines = [
        (
            f"cluster bench — drift '{cfg['trace']}' x {cfg['n_requests']:,} "
            f"requests over {cfg['n_nodes']} nodes ({cfg['policy']}, "
            f"{cfg['capacity_bytes'] / 1e6:.1f} MB total), kill {cfg['victim']} "
            f"@ {cfg['kill_at']:,}, restart @ {cfg['restart_at']:,}"
        ),
    ]
    for name, s in sorted(doc.results["scenarios"].items()):
        rec = s["recovery_requests"]
        lines.append(
            f"  {name}: hit={s['hit_ratio']:.4f} baseline={s['baseline_hit_ratio']:.4f} "
            f"dip={s['dip_depth']:.4f} recovery={rec if rec is not None else '-'} req "
            f"failovers={s['failovers']} fills={s['fills']} errors={s['errors']}"
        )
        if "tracing" in s:
            ts = s["tracing"]["traces"]
            lines.append(
                f"      tracing: {ts['traces_kept']:,}/{ts['traces_started']:,} "
                f"traces kept · failover_hop spans "
                f"{s['tracing']['failover_hop_spans']} (counter {s['failovers']})"
            )
    if "r2_dip_shallower" in cmp_:
        lines.append(
            f"  R=2 dip shallower than R=1: {cmp_['r2_dip_shallower']} "
            f"(reduction {cmp_['dip_reduction']:+.4f}); "
            f"errors zero: {cmp_['errors_zero']}"
        )
    return "\n".join(lines)
