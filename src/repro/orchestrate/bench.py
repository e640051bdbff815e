"""``repro bench orchestrate`` — orchestration vs every fixed candidate.

One run, three measurements on the same drift trace:

1. **fixed baselines** — every candidate policy replayed alone at full
   capacity (the menu the orchestrator chooses from);
2. **orchestrated** — the live cache starting on the first candidate,
   shadows + controller promoting at runtime;
3. **comparison** — the orchestrated miss ratio relative to the best and
   worst fixed candidate (the acceptance band: within a few percent of
   the best, never behind the worst).

The resulting ``BENCH_orchestrate.json`` (results block schema
:data:`ORCHESTRATE_BENCH_SCHEMA`) carries the *complete* orchestration
configuration — trace family, seed, candidate list, sample rate,
controller knobs — so a run is reproducible from the artifact alone
(:func:`repro.bench.config_from_doc` rebuilds the keyword set; the tests
round-trip it).
"""

from __future__ import annotations

from typing import Sequence

from repro.bench import BenchResult, bench_result
from repro.obs.metrics import MetricsRegistry
from repro.orchestrate.controller import (
    ControllerConfig,
    resolve_candidates,
    run_orchestrated,
)
from repro.traces.drift import make_drift_trace

__all__ = [
    "ORCHESTRATE_BENCH_SCHEMA",
    "DEFAULT_CANDIDATES",
    "run_orchestrate_bench",
    "format_orchestrate_doc",
]

#: Version of ``BENCH_orchestrate.json``'s results block; bump on breaking changes.
ORCHESTRATE_BENCH_SCHEMA = 1

#: Default candidate menu: the deployed baseline first (the orchestrator
#: starts there), then the paper's policy, then three structurally
#: different replacement families.
DEFAULT_CANDIDATES = ("LRU", "SCIP", "SIEVE", "S4LRU", "GDSF")


def run_orchestrate_bench(
    trace: str = "diurnal",
    n_requests: int = 120_000,
    fraction: float = 0.02,
    candidates: Sequence[str] = DEFAULT_CANDIDATES,
    sample_rate: float = 0.2,
    window: int = 400,
    hysteresis: float = 0.06,
    min_gap: float = 0.015,
    cooldown: int = 10_000,
    min_samples: int = 300,
    eval_every: int = 500,
    objective: str = "object",
    seed: int = 0,
    quick: bool = False,
) -> BenchResult:
    """Run the orchestrate bench; returns its document."""
    if quick:
        # CI smoke shape: a short drift trace and a two-candidate menu with
        # a decisive gap (deployed-LRU baseline vs the size-aware champion),
        # so a promotion provably fires in seconds.
        n_requests = min(n_requests, 40_000)
        if tuple(candidates) == DEFAULT_CANDIDATES:
            candidates = ("LRU", "GDSF")
    factories = resolve_candidates(candidates)
    tr = make_drift_trace(trace, n_requests=n_requests, seed=seed)
    capacity = max(int(tr.working_set_size * fraction), 1)

    fixed = {}
    for name, factory in factories.items():
        policy = factory(capacity)
        policy.replay(tr.requests)
        fixed[name] = {
            "miss_ratio": policy.stats.miss_ratio,
            "byte_miss_ratio": policy.stats.byte_miss_ratio,
            "evictions": policy.stats.evictions,
        }

    config = ControllerConfig(
        hysteresis=hysteresis,
        min_gap=min_gap,
        cooldown=cooldown,
        min_samples=min_samples,
        eval_every=eval_every,
        objective=objective,
    )
    registry = MetricsRegistry()
    orchestrated = run_orchestrated(
        tr,
        factories,
        capacity,
        rate=sample_rate,
        seed=seed,
        window=window,
        config=config,
        registry=registry,
    )

    key = "miss_ratio" if objective == "object" else "byte_miss_ratio"
    best_name = min(fixed, key=lambda n: fixed[n][key])
    worst_name = max(fixed, key=lambda n: fixed[n][key])
    orch_mr = orchestrated["live"][key]
    best_mr = fixed[best_name][key]
    worst_mr = fixed[worst_name][key]

    # n_requests is the *requested* budget, not len(tr): the generators
    # truncate bursts/sweeps, and reproducing the run means re-asking for
    # the same budget, not asking for the (smaller) realised length.
    orch_config = {
        "trace": trace,
        "n_requests": n_requests,
        "cache_fraction": fraction,
        "capacity_bytes": capacity,
        "candidates": list(factories),
        "sample_rate": sample_rate,
        "window": window,
        "hysteresis": hysteresis,
        "min_gap": min_gap,
        "cooldown": cooldown,
        "min_samples": min_samples,
        "eval_every": eval_every,
        "objective": objective,
        "seed": seed,
    }
    results = {
        "fixed": fixed,
        "orchestrated": orchestrated,
        "comparison": {
            "objective": objective,
            "best_fixed": best_name,
            "best_fixed_mr": best_mr,
            "worst_fixed": worst_name,
            "worst_fixed_mr": worst_mr,
            "orchestrated_mr": orch_mr,
            "rel_to_best": orch_mr / best_mr if best_mr else 0.0,
            "beats_worst": orch_mr < worst_mr,
            "n_switches": len(orchestrated["switches"]),
        },
        "registry": registry.snapshot(),
    }
    return bench_result(
        "orchestrate", ORCHESTRATE_BENCH_SCHEMA, orch_config, results, trace=tr, seed=seed
    )


def format_orchestrate_doc(doc: BenchResult) -> str:
    """Human-readable summary of one orchestrate-bench document."""
    cfg, res = doc.config, doc.results
    cmp_ = res["comparison"]
    n_live = res["orchestrated"]["live"]["requests"]
    lines = [
        (
            f"orchestrate bench — drift '{cfg['trace']}' × {n_live:,} "
            f"requests, cache {cfg['capacity_bytes'] / 1e6:.0f} MB, "
            f"shadows @ R={cfg['sample_rate']:g}, seed {cfg['seed']}"
        ),
        "fixed candidates ({}):".format(cmp_["objective"]),
    ]
    key = "miss_ratio" if cmp_["objective"] == "object" else "byte_miss_ratio"
    for name, row in res["fixed"].items():
        marks = ""
        if name == cmp_["best_fixed"]:
            marks = "  <- best"
        elif name == cmp_["worst_fixed"]:
            marks = "  <- worst"
        lines.append(f"  {name:8s} mr={row[key]:.4f}{marks}")
    switches = res["orchestrated"]["switches"]
    path = " -> ".join(
        [cfg["candidates"][0]] + [s["to"] for s in switches]
    )
    lines += [
        (
            f"orchestrated mr={cmp_['orchestrated_mr']:.4f} "
            f"({cmp_['rel_to_best']:.3f}x best fixed, beats worst: "
            f"{cmp_['beats_worst']}), {cmp_['n_switches']} switch(es): {path}"
        ),
        (
            f"regret ~{res['orchestrated']['regret_excess_misses']:.0f} excess "
            f"misses over {n_live:,} requests; final policy "
            f"{res['orchestrated']['live']['final_policy']}"
        ),
    ]
    return "\n".join(lines)
