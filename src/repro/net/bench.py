"""``repro bench net`` — placement × edge-policy over a 3-tier CDN tree.

Every scenario replays the **same** trace through the **same** topology
shape at the **same** total cache capacity; only two things vary — the
edge tier's policy (the paper's SCIP against LRU and GDSF heuristics)
and the on-path placement strategy (LCE / LCD / probabilistic).  What the
grid shows is the interaction the single-cache benches cannot: LCE burns
edge capacity on one-hit wonders duplicated at every tier, while LCD and
probabilistic placement filter what reaches the edge — the same
admission-quality question SCIP answers *inside* a cache, posed at the
network level.

A PoP-kill scenario then reruns the best grid cell under a
:class:`~repro.cluster.faults.FaultPlan` that kills the busiest edge PoP
mid-trace and restarts it cold, reading dip depth / recovery off the
windowed hit-ratio series exactly like ``BENCH_cluster.json`` does, and
asserting the network's graceful-degradation invariant: the served-error
rate stays 0 because origin always answers.

``BENCH_net.json`` (results block schema :data:`NET_BENCH_SCHEMA`) holds
the full bench configuration; :func:`repro.bench.config_from_doc` rebuilds
the keyword set so the artifact is reproducible by itself.  The doc also
carries per-edge SHARDS working-set estimates for the receiver
population, so the capacity choices are checkable numbers rather than
folklore.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench import BenchResult, bench_result
from repro.cluster.bench import _dip_metrics, _window_series
from repro.cluster.faults import FaultPlan
from repro.net.engine import NetEngine
from repro.net.placement import make_placement
from repro.net.receivers import ZipfReceivers, receiver_wss_from_trace
from repro.net.topology import tree_topology
from repro.traces.cdn import make_workload

__all__ = [
    "NET_BENCH_SCHEMA",
    "run_net_bench",
    "format_net_doc",
]

#: Version of ``BENCH_net.json``'s results block; bump on breaking changes.
NET_BENCH_SCHEMA = 1


def _tier_capacities(
    wss: int,
    fraction: float,
    branching: Sequence[int],
    tier_ratios: Sequence[float],
) -> List[int]:
    """Split ``wss * fraction`` total bytes across tiers.

    ``tier_ratios`` weight the *tier totals* (edge first); the per-node
    capacity divides a tier's total by its node count, so one regional
    cache is individually bigger than one edge cache even at a 1:1 tier
    ratio.  Every scenario shares the result — equal total capacity is
    what makes the latency comparison fair.
    """
    counts = []
    n = 1
    for b in reversed(branching):
        n *= b
    for level in range(len(branching) + 1):
        counts.append(n)
        if level < len(branching):
            n //= branching[level]
    total = max(int(wss * fraction), sum(counts))
    weight = sum(tier_ratios)
    return [
        max(int(total * ratio / weight) // count, 1)
        for ratio, count in zip(tier_ratios, counts)
    ]


def _edge_wss(rows: List[dict], n_edges: int) -> List[dict]:
    """Fold per-receiver WSS rows onto edges (receiver ``r`` drives edge
    ``r % n_edges``).  Union WSS is not recoverable from independent
    samples, so report the summed upper bound alongside the max-receiver
    lower bound."""
    edges: Dict[int, dict] = {}
    for row in rows:
        e = row["receiver"] % n_edges
        agg = edges.setdefault(
            e,
            {
                "edge": f"edge{e}",
                "receivers": 0,
                "requests": 0,
                "rate": 0.0,
                "wss_upper_bytes": 0,
                "wss_lower_bytes": 0,
            },
        )
        agg["receivers"] += 1
        agg["requests"] += row["requests"]
        agg["rate"] += row["rate"]
        agg["wss_upper_bytes"] += row["wss_estimate"]
        agg["wss_lower_bytes"] = max(agg["wss_lower_bytes"], row["wss_estimate"])
    out = [edges[e] for e in sorted(edges)]
    for row in out:
        row["rate"] = round(row["rate"], 6)
    return out


def _run_scenario(
    trace,
    capacities: Sequence[int],
    branching: Sequence[int],
    edge_policy: str,
    upper_policy: str,
    placement: str,
    prob_p: float,
    receivers: ZipfReceivers,
    seed: int,
    fault_plan: Optional[FaultPlan] = None,
    window: Optional[int] = None,
    kill_at: Optional[int] = None,
) -> dict:
    topo = tree_topology(
        branching=branching,
        capacities=capacities,
        policies=(edge_policy,) + (upper_policy,) * len(branching),
        seed=seed,
    )
    strategy = (
        make_placement(placement, p=prob_p, seed=seed)
        if placement == "PROB"
        else make_placement(placement)
    )
    engine = NetEngine(
        topo, placement=strategy, receivers=receivers, fault_plan=fault_plan
    )
    unhandled = 0
    try:
        res = engine.run(trace)
    except Exception:  # pragma: no cover - the never-raise pin
        unhandled = 1
        res = engine.result
    doc = res.as_dict()
    doc["edge_policy"] = edge_policy
    doc["placement"] = strategy.as_dict()
    doc["served_error_rate"] = res.errors / res.requests if res.requests else 0.0
    doc["unhandled_exceptions"] = unhandled
    if fault_plan is not None and window and kill_at is not None:
        series = _window_series(res.hit_flags, window)
        doc["window"] = window
        doc["hit_ratio_series"] = [round(r, 4) for r in series]
        doc.update(_dip_metrics(series, window, kill_at))
    return doc


def run_net_bench(
    trace: str = "CDN-T",
    n_requests: int = 120_000,
    branching: Sequence[int] = (4, 2),
    fraction: float = 0.15,
    tier_ratios: Sequence[float] = (1.0, 1.0, 2.0),
    edge_policies: Sequence[str] = ("LRU", "GDSF", "SCIP"),
    upper_policy: str = "LRU",
    placements: Sequence[str] = ("LCE", "LCD", "PROB"),
    prob_p: float = 0.7,
    n_receivers: int = 32,
    receiver_beta: float = 0.8,
    kill_frac: float = 0.4,
    restart_frac: float = 0.7,
    window: int = 2_000,
    seed: int = 0,
    quick: bool = False,
) -> BenchResult:
    """Run the placement × edge-policy grid plus the PoP-kill scenario.

    The grid holds the tree shape, per-tier capacities, upper-tier policy
    and receiver population fixed; each cell is one
    ``(edge policy, placement)`` pair on the identical request stream.
    The PoP-kill scenario reruns the lowest-latency cell with the busiest
    edge PoP killed at ``kill_frac`` and restarted cold at
    ``restart_frac`` of the trace.
    """
    if quick:
        n_requests = min(n_requests, 24_000)
        window = min(window, 1_000)
    tr = make_workload(trace, n_requests=n_requests, seed=seed)
    n = len(tr.requests)
    capacities = _tier_capacities(
        tr.working_set_size, fraction, branching, tier_ratios
    )
    rx = ZipfReceivers(n_receivers, beta=receiver_beta, seed=seed)
    n_edges = 1
    for b in branching:
        n_edges *= b

    # Per-edge working sets (SHARDS-estimated): the defensibility check
    # for the edge capacity choice, and the victim selector for the kill.
    wss_rows = receiver_wss_from_trace(tr, rx)
    edge_wss = _edge_wss(wss_rows, n_edges)
    victim = max(edge_wss, key=lambda row: row["requests"])["edge"]

    scenarios = {}
    for policy in edge_policies:
        for placement in placements:
            scenarios[f"{policy}+{placement}"] = _run_scenario(
                tr,
                capacities,
                branching,
                policy,
                upper_policy,
                placement,
                prob_p,
                rx,
                seed,
            )

    best = min(scenarios, key=lambda name: scenarios[name]["mean_latency_ms"])
    kill_at, restart_at = int(n * kill_frac), int(n * restart_frac)
    best_policy, best_placement = best.split("+")
    popkill = _run_scenario(
        tr,
        capacities,
        branching,
        best_policy,
        upper_policy,
        best_placement,
        prob_p,
        rx,
        seed,
        fault_plan=FaultPlan().kill(victim, at=kill_at).restart(victim, at=restart_at),
        window=window,
        kill_at=kill_at,
    )
    popkill["victim"] = victim
    popkill["grid_cell"] = best

    bench_config = {
        "trace": trace,
        "n_requests": n_requests,
        "branching": list(branching),
        "fraction": fraction,
        "tier_ratios": list(tier_ratios),
        "edge_policies": list(edge_policies),
        "upper_policy": upper_policy,
        "placements": list(placements),
        "prob_p": prob_p,
        "n_receivers": n_receivers,
        "receiver_beta": receiver_beta,
        "kill_frac": kill_frac,
        "restart_frac": restart_frac,
        "window": window,
        "seed": seed,
        # derived (recomputed on replay, recorded for the reader):
        "capacities": capacities,
        "total_capacity_bytes": _grid_total_capacity(capacities, branching),
        "victim": victim,
        "kill_at": kill_at,
        "restart_at": restart_at,
    }
    results = {
        "edge_wss": edge_wss,
        "scenarios": scenarios,
        "popkill": popkill,
        "comparison": _compare(scenarios, popkill, edge_policies, placements),
    }
    return bench_result("net", NET_BENCH_SCHEMA, bench_config, results, trace=tr, seed=seed)


def _grid_total_capacity(
    capacities: Sequence[int], branching: Sequence[int]
) -> int:
    total, n = 0, 1
    for b in reversed(branching):
        n *= b
    for level, cap in enumerate(capacities):
        total += cap * n
        if level < len(branching):
            n //= branching[level]
    return total


def _compare(
    scenarios: dict,
    popkill: dict,
    edge_policies: Sequence[str],
    placements: Sequence[str],
) -> dict:
    """The acceptance summary across the grid."""
    latency = {name: s["mean_latency_ms"] for name, s in scenarios.items()}
    copies = {name: s["copies_placed"] for name, s in scenarios.items()}
    onpath_wins = {}
    lcd_copy_reduction = {}
    for policy in edge_policies:
        lce = scenarios.get(f"{policy}+LCE")
        if lce is None:
            continue
        rivals = [
            scenarios[f"{policy}+{p}"]
            for p in placements
            if p != "LCE" and f"{policy}+{p}" in scenarios
        ]
        onpath_wins[policy] = any(
            r["mean_latency_ms"] < lce["mean_latency_ms"] for r in rivals
        )
        lcd = scenarios.get(f"{policy}+LCD")
        if lcd is not None:
            lcd_copy_reduction[policy] = lce["copies_placed"] - lcd["copies_placed"]
    return {
        "mean_latency_ms": latency,
        "copies_placed": copies,
        "best_cell": min(latency, key=latency.get),
        # acceptance: LCD or probabilistic beats LCE at equal capacity
        "onpath_beats_lce": onpath_wins,
        "onpath_beats_lce_any": any(onpath_wins.values()),
        # CI smoke: LCD places strictly fewer copies than LCE
        "lcd_copy_reduction": lcd_copy_reduction,
        "popkill_served_error_rate": popkill["served_error_rate"],
        "popkill_dip_depth": popkill.get("dip_depth"),
        "errors_zero": all(s["errors"] == 0 for s in scenarios.values())
        and popkill["errors"] == 0,
        "unhandled_exceptions_zero": all(
            s["unhandled_exceptions"] == 0 for s in scenarios.values()
        )
        and popkill["unhandled_exceptions"] == 0,
    }


def format_net_doc(doc: BenchResult) -> str:
    """Human-readable summary of one net-bench document."""
    cfg, res = doc.config, doc.results
    cmp_ = res["comparison"]
    lines = [
        (
            f"net bench — '{cfg['trace']}' x {cfg['n_requests']:,} requests over "
            f"tree{tuple(cfg['branching'])} "
            f"({cfg['total_capacity_bytes'] / 1e6:.1f} MB total, "
            f"upper={cfg['upper_policy']}), {cfg['n_receivers']} receivers "
            f"(beta={cfg['receiver_beta']})"
        ),
    ]
    for name in sorted(res["scenarios"]):
        s = res["scenarios"][name]
        tiers = " ".join(
            f"{t}={m:.3f}" for t, m in sorted(s["tier_miss_ratios"].items())
        )
        lines.append(
            f"  {name:<12} hit={s['hit_ratio']:.4f} "
            f"latency={s['mean_latency_ms']:7.3f} ms "
            f"copies={s['copies_placed']:,} miss[{tiers}]"
        )
    pk = res["popkill"]
    rec = pk.get("recovery_requests")
    lines.append(
        f"  popkill[{pk['grid_cell']}] kill {pk['victim']}: "
        f"dip={pk.get('dip_depth', 0.0):.4f} "
        f"recovery={rec if rec is not None else '-'} req "
        f"served_error_rate={pk['served_error_rate']:.4f}"
    )
    lines.append(
        f"  best={cmp_['best_cell']} · on-path beats LCE: "
        f"{cmp_['onpath_beats_lce_any']} · LCD copy reduction: "
        f"{cmp_['lcd_copy_reduction']}"
    )
    lines.append("  per-edge receiver WSS (SHARDS):")
    for row in res["edge_wss"]:
        lines.append(
            f"    {row['edge']:<7} {row['receivers']:2d} receivers "
            f"rate={row['rate']:.3f} requests={row['requests']:,} "
            f"wss≈{row['wss_lower_bytes'] / 1e6:.1f}–"
            f"{row['wss_upper_bytes'] / 1e6:.1f} MB"
        )
    return "\n".join(lines)
