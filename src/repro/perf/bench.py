"""Engine micro-benchmark: replay throughput with a persisted trajectory.

``repro bench`` (or :func:`run_engine_bench`) replays a fixed-seed synthetic
workload through a small policy set on **both** engine paths:

* *legacy* — the per-request rich loop (``MetricsCollector.record`` around
  every ``policy.request`` call), which is exactly the pre-optimization
  replay engine, and
* *fast* — the slim bulk-``replay`` loop the engine now uses by default.

For every policy it reports requests/second on each path, the speedup, and
asserts the two paths produced **identical** miss ratios — a hot run of the
golden-trace gate.  A third measurement replays under a default
``ObsConfig()`` (``tps_traced``) — the registry-only probe, which LRU and
ARC answer on the per-event hook path and SCIP folds inside its column
loop — so ``trace_cost`` records what watching each policy costs; and,
by comparing ``tps_fast`` against the previous persisted document
(``headline.fast_tps_prev`` / ``headline.fast_change_vs_prev``), what the
*disabled* instrumentation costs, which must stay within noise.  Results
are written to ``BENCH_engine.json`` so future optimization PRs have a
before/after perf trajectory to extend, not just a point measurement.

Schema 2 adds two array-engine measurements.  Batch-capable policies
(:data:`repro.sim.batch.BATCH_POLICIES`) get a ``tps_batch`` column — the
batch core (structure-of-arrays for LRU/FIFO/CLOCK/SIEVE, SCIP's inlined
column loop) replaying the same in-memory trace, asserted bit-identical
on miss ratios against the rich engine.  The ``streaming``
section is the paper-scale shape in miniature: a constant-memory
generator writes a binary trace file, and the batch LRU core replays it
from disk (mmap, chunked) at a no-eviction capacity — the configuration
whose 100 M-request headline lives in ``docs/trace_format.md``.

The headline number is the LRU speedup: LRU is the pure engine hot path
(dict probe + pointer splice, no policy-specific work), so it isolates what
the replay machinery itself costs.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, Iterable, Mapping, Optional

from repro.sim.engine import simulate
from repro.sim.request import Trace

__all__ = [
    "DEFAULT_BENCH_POLICIES",
    "bench_registry",
    "run_engine_bench",
    "format_bench",
]

#: Policy set replayed by default: the engine baseline, a multi-chain
#: heuristic, and the paper's learned policy.
DEFAULT_BENCH_POLICIES = ("LRU", "ARC", "SCIP")

#: Schema version of ``BENCH_engine.json``; bump on layout changes.
#: 2: added per-policy ``tps_batch`` (array-engine replay, batch-capable
#: policies only) and the ``streaming`` section (binary-trace file replay).
BENCH_SCHEMA = 2


def bench_registry() -> Dict[str, Callable[[int], object]]:
    """Deprecated: use :mod:`repro.cache.registry` instead.

    Returns the unified name → factory map (heuristics plus the paper's
    SCIP/SCI).  Kept as a thin shim so pre-registry callers keep working.
    """
    import warnings

    warnings.warn(
        "repro.perf.bench.bench_registry is deprecated; use "
        "repro.cache.registry.make_policy / available_policies",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.cache.registry import policy_registry

    return policy_registry()


def _best_tps(
    factory: Callable[[int], object],
    trace: Trace,
    capacity: int,
    repeats: int,
    fast: Optional[bool],
    traced: bool = False,
) -> tuple:
    """Best-of-``repeats`` throughput; returns (tps, miss_ratio, byte_mr).

    With ``traced=True`` an observability session (registry recorder, no
    file sink) rides along — on the instrumented per-request path, or for
    SCIP folded inside its column loop — the tracing-cost measurement.
    """
    from repro.obs import ObsConfig

    best = 0.0
    miss_ratio = byte_mr = None
    for _ in range(max(repeats, 1)):
        obs = ObsConfig() if traced else None
        res = simulate(factory(capacity), trace, fast=fast, obs=obs)
        best = max(best, res.tps)
        if miss_ratio is None:
            miss_ratio = res.miss_ratio
            byte_mr = res.byte_miss_ratio
        elif res.miss_ratio != miss_ratio:  # pragma: no cover - determinism gate
            raise AssertionError(
                f"non-deterministic replay: miss_ratio {res.miss_ratio!r} != {miss_ratio!r}"
            )
    return best, miss_ratio, byte_mr


def _best_tps_batch(name: str, trace: Trace, capacity: int, repeats: int) -> tuple:
    """Best-of-``repeats`` batch-core throughput on an in-memory trace."""
    from repro.sim.batch import simulate_batch

    best = 0.0
    miss_ratio = byte_mr = None
    for _ in range(max(repeats, 1)):
        res = simulate_batch(name, trace, capacity)
        best = max(best, res.tps)
        if miss_ratio is None:
            miss_ratio, byte_mr = res.miss_ratio, res.byte_miss_ratio
    return best, miss_ratio, byte_mr


def _streaming_bench(n_requests: int, repeats: int) -> dict:
    """Binary-trace file replay: stream-generate, then batch-replay LRU.

    Capacity is 2x the header's working-set estimate — the no-eviction
    configuration that isolates the array engine itself (classification,
    grouping, map traffic) from the eviction scalar loop.
    """
    import os
    import tempfile

    from repro.sim.batch import batch_replay
    from repro.traces.streaming import cdn_t_stream_spec, stream_to_bin

    fd, path = tempfile.mkstemp(suffix=".bin", prefix="bench_stream_")
    os.close(fd)
    try:
        header = stream_to_bin(cdn_t_stream_spec(n_requests), path)
        cache_bytes = 2 * max(header["wss_estimate"], 1)
        best = 0.0
        stats = None
        for _ in range(max(repeats, 1)):
            t0 = time.perf_counter()
            core = batch_replay("LRU", path, cache_bytes)
            dt = time.perf_counter() - t0
            st = core.stats
            n = st.hits + st.misses + st.bypasses
            best = max(best, n / dt if dt > 0 else float("inf"))
            if stats is None:
                classified = st.hits + st.misses
                stats = {
                    "miss_ratio": st.misses / classified if classified else 0.0,
                    "n_requests": n,
                }
        return {
            "workload": "CDN-T-stream",
            "policy": "LRU",
            "n_requests": stats["n_requests"],
            "wss_estimate": header["wss_estimate"],
            "cache_bytes": cache_bytes,
            "tps_batch": best,
            "miss_ratio": stats["miss_ratio"],
        }
    finally:
        os.unlink(path)


def run_engine_bench(
    policies: Iterable[str] = DEFAULT_BENCH_POLICIES,
    workload: str = "CDN-T",
    n_requests: int = 200_000,
    fraction: float = 0.02,
    repeats: int = 3,
    output: Optional[str] = "BENCH_engine.json",
    quick: bool = False,
    registry: Optional[Mapping[str, Callable[[int], object]]] = None,
    seed: Optional[int] = None,
) -> dict:
    """Run the engine micro-benchmark and (optionally) persist the result.

    Parameters
    ----------
    policies:
        Policy names to replay (must exist in the unified
        :mod:`repro.cache.registry`).
    workload, n_requests, fraction:
        Fixed-seed synthetic workload and cache size (fraction of its WSS).
    repeats:
        Timing repeats per (policy, path); best-of is reported.
    output:
        Path for ``BENCH_engine.json``; ``None`` skips writing.
    quick:
        Smoke mode for CI: 30 k requests, one repeat (~seconds).
    seed:
        Workload seed override; ``None`` keeps each workload's fixed
        default (the historical baseline-comparable stream).
    """
    from repro.traces.cdn import make_workload

    if quick:
        n_requests = min(n_requests, 30_000)
        repeats = 1
    if registry is not None:
        reg = dict(registry)
    else:
        from repro.cache.registry import policy_registry

        reg = policy_registry()
    unknown = [p for p in policies if p not in reg]
    if unknown:
        raise KeyError(f"unknown bench policies {unknown}; available: {sorted(reg)}")

    trace = make_workload(workload, n_requests=n_requests, seed=seed)
    capacity = max(int(trace.working_set_size * fraction), 1)

    from repro.sim.batch import batch_supported

    results: Dict[str, dict] = {}
    for name in policies:
        factory = reg[name]
        tps_legacy, mr_legacy, bmr_legacy = _best_tps(
            factory, trace, capacity, repeats, fast=False
        )
        tps_fast, mr_fast, bmr_fast = _best_tps(
            factory, trace, capacity, repeats, fast=True
        )
        tps_traced, mr_traced, bmr_traced = _best_tps(
            factory, trace, capacity, repeats, fast=None, traced=True
        )
        if mr_fast != mr_legacy or bmr_fast != bmr_legacy:
            raise AssertionError(
                f"{name}: fast path drifted from legacy path "
                f"(miss_ratio {mr_fast!r} vs {mr_legacy!r}, "
                f"byte_miss_ratio {bmr_fast!r} vs {bmr_legacy!r})"
            )
        if mr_traced != mr_legacy or bmr_traced != bmr_legacy:
            raise AssertionError(
                f"{name}: traced path drifted from legacy path "
                f"(miss_ratio {mr_traced!r} vs {mr_legacy!r})"
            )
        tps_batch = None
        if batch_supported(name):
            tps_batch, mr_batch, bmr_batch = _best_tps_batch(
                name, trace, capacity, repeats
            )
            if mr_batch != mr_legacy or bmr_batch != bmr_legacy:
                raise AssertionError(
                    f"{name}: batch core drifted from rich engine "
                    f"(miss_ratio {mr_batch!r} vs {mr_legacy!r}, "
                    f"byte_miss_ratio {bmr_batch!r} vs {bmr_legacy!r})"
                )
        results[name] = {
            "tps_legacy": tps_legacy,
            "tps_fast": tps_fast,
            "tps_traced": tps_traced,
            "tps_batch": tps_batch,
            "speedup": tps_fast / tps_legacy if tps_legacy > 0 else float("inf"),
            "trace_cost": tps_fast / tps_traced if tps_traced > 0 else float("inf"),
            "miss_ratio": mr_fast,
            "byte_miss_ratio": bmr_fast,
        }

    # Paper-scale shape needs enough requests to amortise per-chunk costs;
    # quick mode keeps the CI smoke run at seconds.
    streaming = _streaming_bench(
        n_requests if quick else max(n_requests, 1_000_000), repeats
    )

    headline_policy = "LRU" if "LRU" in results else next(iter(results))
    # Perf trajectory: compare this run's fast path against the previous
    # persisted document (same machine in CI and the dev loop) — the
    # disabled-instrumentation regression gate.
    fast_tps_prev = fast_change = None
    if output:
        try:
            with open(output) as f:
                prev = json.load(f)
            if (
                prev.get("workload") == workload
                and prev.get("n_requests") == len(trace)
                and headline_policy in prev.get("results", {})
            ):
                fast_tps_prev = prev["results"][headline_policy]["tps_fast"]
                fast_change = (
                    results[headline_policy]["tps_fast"] / fast_tps_prev - 1.0
                )
        except (OSError, ValueError, KeyError):
            pass
    doc = {
        "schema": BENCH_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "workload": workload,
        "n_requests": len(trace),
        "cache_fraction": fraction,
        "capacity_bytes": capacity,
        "repeats": repeats,
        "results": results,
        "streaming": streaming,
        "headline": {
            "policy": headline_policy,
            "speedup": results[headline_policy]["speedup"],
            "tps_fast": results[headline_policy]["tps_fast"],
            "tps_legacy": results[headline_policy]["tps_legacy"],
            "trace_cost": results[headline_policy]["trace_cost"],
            "tps_batch": results[headline_policy]["tps_batch"],
            "streaming_tps": streaming["tps_batch"],
            "fast_tps_prev": fast_tps_prev,
            "fast_change_vs_prev": fast_change,
        },
    }
    if output:
        with open(output, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return doc


def format_bench(doc: dict) -> str:
    """Human-readable table of a bench document."""
    lines = [
        f"engine bench — {doc['workload']} × {doc['n_requests']:,} requests, "
        f"cache {doc['cache_fraction']:.0%} of WSS "
        f"({doc['capacity_bytes'] / 1e6:.1f} MB), best of {doc['repeats']}",
        f"{'policy':<8} {'legacy req/s':>14} {'fast req/s':>14} {'traced req/s':>14} "
        f"{'batch req/s':>14} {'speedup':>9} {'miss_ratio':>11}",
    ]
    for name, r in doc["results"].items():
        traced = f"{r['tps_traced']:>14,.0f}" if "tps_traced" in r else f"{'-':>14}"
        batch = (
            f"{r['tps_batch']:>14,.0f}" if r.get("tps_batch") is not None else f"{'-':>14}"
        )
        lines.append(
            f"{name:<8} {r['tps_legacy']:>14,.0f} {r['tps_fast']:>14,.0f} {traced} "
            f"{batch} {r['speedup']:>8.2f}x {r['miss_ratio']:>11.4f}"
        )
    h = doc["headline"]
    lines.append(f"headline ({h['policy']}): {h['speedup']:.2f}x")
    s = doc.get("streaming")
    if s:
        lines.append(
            f"streaming ({s['workload']} .bin, {s['n_requests']:,} requests, "
            f"no-evict): {s['tps_batch']:,.0f} req/s batch {s['policy']}, "
            f"miss_ratio {s['miss_ratio']:.4f}"
        )
    if h.get("fast_change_vs_prev") is not None:
        lines.append(
            f"fast path vs previous run: {h['fast_change_vs_prev']:+.2%} "
            f"(prev {h['fast_tps_prev']:,.0f} req/s)"
        )
    return "\n".join(lines)
