"""``repro bench tenancy`` — online capacity allocation vs static split.

One run, two measurements on the same spliced multi-tenant trace
(:func:`repro.traces.drift.multi_tenant_trace` — K families, one of them
a flash crowd):

1. **static** — a :class:`~repro.tenancy.partition.TenantPartitionedCache`
   frozen at the equal split: each tenant keeps ``capacity / K`` forever,
   however its demand moves;
2. **online** — the same partition driven by a
   :class:`~repro.tenancy.controller.TenancyController`: live per-tenant
   MRCs feed the waterfilling allocator, SLO burn rates force relief, and
   accepted splits are enforced through ``set_quotas``.

The **comparison** block is the acceptance contract: at equal total
capacity the online allocation should cut the *worst tenant's* miss ratio
by ≥5 % relative to static (fairness) without losing overall hit ratio
(utilization).  The resulting ``BENCH_tenancy.json`` (results block
schema :data:`TENANCY_BENCH_SCHEMA`) carries the complete configuration,
so :func:`repro.bench.config_from_doc` rebuilds a reproducing keyword set
from the artifact alone.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.bench import BenchResult, bench_result
from repro.orchestrate.controller import ControllerConfig
from repro.tenancy.controller import TenancyController
from repro.tenancy.partition import TenantPartitionedCache
from repro.traces.drift import multi_tenant_trace

__all__ = [
    "TENANCY_BENCH_SCHEMA",
    "DEFAULT_TENANTS",
    "run_tenancy_bench",
    "format_tenancy_doc",
]

#: Version of ``BENCH_tenancy.json``'s results block; bump on breaking changes.
TENANCY_BENCH_SCHEMA = 1

#: Default tenant mix: a stable-churn tenant, a flash-crowd tenant whose
#: demand spikes mid-trace, and a diurnal tenant rotating its hot set —
#: the shape that makes a static split provably wrong somewhere.
DEFAULT_TENANTS = ("churn", "flash", "diurnal")


def _replay_partition(
    partition: TenantPartitionedCache,
    trace,
    controller: Optional[TenancyController] = None,
) -> Dict[str, dict]:
    """Replay ``trace`` through ``partition`` (optionally under a
    controller), returning per-tenant and overall hit accounting."""
    request = partition.request
    record = controller.record if controller is not None else None
    for req in trace:
        hit = request(req)
        if record is not None:
            record(req, hit)
    per_tenant = {}
    for t, row in partition.tenant_stats().items():
        per_tenant[str(t)] = {
            "requests": row["requests"],
            "miss_ratio": row["miss_ratio"],
            "byte_miss_ratio": row["byte_miss_ratio"],
            "evictions": row["evictions"],
            "quota_bytes": row["quota_bytes"],
            "used_bytes": row["used_bytes"],
        }
    stats = partition.stats
    return {
        "overall": {
            "requests": stats.hits + stats.misses,
            "miss_ratio": stats.miss_ratio,
            "byte_miss_ratio": stats.byte_miss_ratio,
            "evictions": stats.evictions,
            "quota_evictions": partition.quota_evictions,
            "quota_evicted_bytes": partition.quota_evicted_bytes,
        },
        "tenants": per_tenant,
    }


def run_tenancy_bench(
    tenants: Sequence[str] = DEFAULT_TENANTS,
    n_requests: int = 120_000,
    fraction: float = 0.05,
    mr_slo: float = 0.5,
    burn_threshold: float = 1.5,
    objective: str = "fairness",
    sample_rate: float = 0.2,
    window: int = 400,
    hysteresis: float = 0.02,
    min_gap: float = 0.002,
    cooldown: int = 8_000,
    min_samples: int = 200,
    eval_every: int = 500,
    min_share: float = 0.05,
    seed: int = 0,
    quick: bool = False,
) -> BenchResult:
    """Run the tenancy bench; returns its document."""
    if quick:
        # CI smoke shape: short trace, same three-family mix — the flash
        # crowd still lands mid-trace, so a re-allocation provably fires.
        n_requests = min(n_requests, 45_000)
    tenants = tuple(tenants)
    tr = multi_tenant_trace(n_requests=n_requests, seed=seed, tenants=tenants)
    k = len(tenants)
    capacity = max(int(tr.working_set_size * fraction), k)

    static_part = TenantPartitionedCache(capacity, n_tenants=k)
    static = _replay_partition(static_part, tr.requests)

    online_part = TenantPartitionedCache(capacity, n_tenants=k)
    config = ControllerConfig(
        hysteresis=hysteresis,
        min_gap=min_gap,
        cooldown=cooldown,
        min_samples=min_samples,
        eval_every=eval_every,
    )
    controller = TenancyController(
        capacity,
        k,
        apply=online_part.set_quotas,
        initial=online_part.quotas(),
        mr_slo=mr_slo,
        burn_threshold=burn_threshold,
        rate=sample_rate,
        seed=seed,
        window=window,
        objective=objective,
        min_share=min_share,
        config=config,
    )
    online = _replay_partition(online_part, tr.requests, controller=controller)
    online["controller"] = controller.summary()

    def worst_mr(run: dict) -> float:
        rows = [r for r in run["tenants"].values() if r["requests"]]
        return max(r["miss_ratio"] for r in rows) if rows else 0.0

    static_worst = worst_mr(static)
    online_worst = worst_mr(online)
    comparison = {
        "objective": objective,
        "capacity_bytes": capacity,
        "static_worst_tenant_mr": static_worst,
        "online_worst_tenant_mr": online_worst,
        # The acceptance metric: relative improvement of the worst-off
        # tenant at equal total capacity (>= 0.05 required).
        "worst_tenant_improvement": (
            (static_worst - online_worst) / static_worst if static_worst else 0.0
        ),
        "static_overall_mr": static["overall"]["miss_ratio"],
        "online_overall_mr": online["overall"]["miss_ratio"],
        "n_reallocations": len(controller.reallocations),
        "n_slo_breaches": len(controller.breaches),
        "accounting_errors": controller.accounting_errors(),
    }

    ten_config = {
        "tenants": list(tenants),
        "n_requests": n_requests,
        "cache_fraction": fraction,
        "capacity_bytes": capacity,
        "mr_slo": mr_slo,
        "burn_threshold": burn_threshold,
        "objective": objective,
        "sample_rate": sample_rate,
        "window": window,
        "hysteresis": hysteresis,
        "min_gap": min_gap,
        "cooldown": cooldown,
        "min_samples": min_samples,
        "eval_every": eval_every,
        "min_share": min_share,
        "seed": seed,
    }
    results = {"static": static, "online": online, "comparison": comparison}
    return bench_result(
        "tenancy", TENANCY_BENCH_SCHEMA, ten_config, results, trace=tr, seed=seed
    )


def format_tenancy_doc(doc: BenchResult) -> str:
    """Human-readable summary of one tenancy-bench document."""
    cfg, res = doc.config, doc.results
    cmp_ = res["comparison"]
    lines = [
        (
            f"tenancy bench — {len(cfg['tenants'])} tenants "
            f"({', '.join(cfg['tenants'])}) × "
            f"{res['static']['overall']['requests']:,} requests, "
            f"cache {cfg['capacity_bytes'] / 1e6:.0f} MB, "
            f"objective {cfg['objective']}, seed {cfg['seed']}"
        ),
        "per-tenant miss ratio (static -> online):",
    ]
    for t in sorted(res["static"]["tenants"]):
        s = res["static"]["tenants"][t]["miss_ratio"]
        o = res["online"]["tenants"][t]["miss_ratio"]
        q = res["online"]["tenants"][t]["quota_bytes"]
        lines.append(
            f"  tenant {t} ({cfg['tenants'][int(t)]:8s}) "
            f"{s:.4f} -> {o:.4f}  (final quota {q / 1e6:.1f} MB)"
        )
    lines += [
        (
            f"worst tenant mr {cmp_['static_worst_tenant_mr']:.4f} -> "
            f"{cmp_['online_worst_tenant_mr']:.4f} "
            f"({cmp_['worst_tenant_improvement'] * 100:+.1f}% improvement)"
        ),
        (
            f"overall mr {cmp_['static_overall_mr']:.4f} -> "
            f"{cmp_['online_overall_mr']:.4f}; "
            f"{cmp_['n_reallocations']} realloc(s), "
            f"{cmp_['n_slo_breaches']} SLO breach event(s), "
            f"{cmp_['accounting_errors']} accounting error(s)"
        ),
    ]
    return "\n".join(lines)
