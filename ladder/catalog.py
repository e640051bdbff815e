"""The ledger's vocabulary: workload names, metric names, units, bounds.

One place, so the command line, the comparison tool, the README tables,
``BENCHMARK.json`` and the tests cannot drift apart
(``ladder/tests/test_catalog.py`` pins ``BENCHMARK.json`` to this file).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "Workload",
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "SYNC",
    "benchmark_json",
    "workload",
]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``sync`` replays are deterministic call-and-return; ``async`` ones
    #: go through the event loop, where scheduling may reorder requests.
    kind: str
    #: the layer (module of ``repro``) the workload is named for: the
    #: traced run reports its share as ``trace.dominant_share``.
    layer: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "replay-scip", "sync", "cache",
        "the paper's policy on the paper's path: .bin file to result as "
        "`repro simulate --trace-file` does it; cache does most of the work, "
        "traces.read_bin the rest",
    ),
    Workload(
        "replay-lru-stream", "sync", "sim",
        "simulate_batch over mmap chunks: sim.batch and traces.binfmt only, no "
        "Request or policy objects; a SCIP-only change must not move it",
    ),
    Workload(
        "replay-obs", "sync", "obs",
        "simulate(SCIP, obs=ObsConfig()): the only place the probe's cost is "
        "most of the run, so a probe change cannot hide",
    ),
    Workload(
        "serve-closed", "async", "serve",
        "CacheService at zero origin latency, 16 closed-loop callers: queue hop "
        "and asyncio hand-off dominate, the policy is a sixth",
    ),
    Workload(
        "serve-paced", "async", "serve",
        "same service, open loop at 4000 req/s with a 2 ms failing origin: fetch "
        "path, coalescing and retries carry the latency; throughput work must "
        "not move it",
    ),
    Workload(
        "cluster-r2", "async", "cluster",
        "3 nodes R=2 with the busiest node killed at 40 % and restarted cold at "
        "70 %: routing, replica fills and the only failure path",
    ),
    Workload(
        "net-tree", "sync", "net",
        "NetEngine over an 8-2-1 tree with LCE placement and 64 Zipf receivers: "
        "routing and placement around the per-node policies",
    ),
)

#: workloads whose hit/miss stream is a pure function of the seed.
SYNC = frozenset(w.name for w in WORKLOADS if w.kind == "sync")


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; one of {[w.name for w in WORKLOADS]}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: end-to-end only: share of the base median by which the metric may
    #: worsen before it counts as a regression.
    bound: Optional[float] = None
    #: workloads that measure it; empty = every workload.
    homes: Tuple[str, ...] = ()
    #: end-to-end quality metrics compared at the *same seed*: the bound on
    #: synchronous workloads (0.0 = bit-for-bit) and on asynchronous ones.
    same_seed: Optional[Tuple[float, float]] = None
    note: str = ""

    def measured_on(self, workload_name: str) -> bool:
        return not self.homes or workload_name in self.homes


_LAT = ("serve-closed", "serve-paced", "cluster-r2")

#: The ten end-to-end metrics.  ``bound`` must hold across *different*
#: seeds on a shared host (the acceptance runs vary the seed), which is
#: why the quality metrics carry a looser cross-seed bound next to their
#: same-seed rule, and why the timing bounds are half again the issue's:
#: ten-seed spreads on the sandbox read 2-6 % in its quiet minutes (README).
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           note="imports + median of three input generations + service build / cache fill, reference-host s"),
    Metric("throughput_rps", "1/s", "higher", 0.15,
           note="requests per reference-host second, third quartile over units / windows"),
    Metric("cpu_us_per_req", "us", "lower", 0.15,
           note="process_time per request in reference-host us, first quartile over units / windows"),
    Metric("latency_p50_us", "us", "lower", 0.15, homes=_LAT,
           note="exact percentile of each window's perf_counter_ns samples, first quartile over windows"),
    Metric("latency_p99_us", "us", "lower", 0.24, homes=_LAT,
           note="as p50; 16 (serve-paced) to 70 (serve-closed) samples beyond it per window"),
    Metric("miss_ratio", "ratio", "lower", 0.12, same_seed=(0.0, 0.01),
           note="object miss ratio, whole run, no warm-up exclusion"),
    Metric("byte_miss_ratio", "ratio", "lower", 0.12, same_seed=(0.0, 0.01)),
    Metric("sim_latency_ms", "ms", "lower", 0.12, homes=("net-tree",),
           same_seed=(0.0, 0.0),
           note="simulated mean request latency of the net latency model, not host time"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           note="ru_maxrss of the workload's own process"),
    Metric("failed_share", "ratio", "lower", 0.0,
           note="(shed + errors + unhandled + no outcome) / attempted; 1.0 if a check fails"),
)

_SERVE = ("serve-closed", "serve-paced")


def _layer(name, unit, better, homes, note=""):
    return Metric(name, unit, better, homes=tuple(homes), note=note)


#: Per-layer rungs, measured by the traced run from ``ladder``'s own
#: wrappers.  ``homes`` is where each is measured; ``note`` is what it
#: should move (the interaction table of the README).
PER_LAYER: Tuple[Metric, ...] = (
    # -- cache: the policy decision ---------------------------------------
    _layer("cache.scip_decide_us", "us", "lower", ["replay-scip"],
           "throughput_rps + cpu_us_per_req on replay-scip (3/4 share or more); <= 40 % on net-tree; "
           "<= 20 % on serve-closed; nothing on replay-lru-stream"),
    _layer("cache.lru_decide_us", "us", "lower", ["replay-scip"], "as above, for the LRU tiers of net-tree"),
    _layer("cache.evictions_per_miss", "ratio", "lower", ["replay-scip"], "explains a miss_ratio move"),
    _layer("cache.resident_objects", "count", "higher", ["replay-scip"], "explains a miss_ratio move"),
    # -- sim: the replay loops --------------------------------------------
    _layer("sim.rich_rps", "1/s", "higher", ["replay-scip"], "replay-obs (the probe rides the rich loop)"),
    _layer("sim.fast_rps", "1/s", "higher", ["replay-scip"], "replay-scip throughput_rps"),
    _layer("sim.loop_self_us", "us", "lower", ["replay-scip"],
           "1e6/sim.fast_rps - cache.scip_decide_us: what the loop adds to the decision"),
    _layer("sim.fast_lru_rps", "1/s", "higher", ["replay-lru-stream"], "the bar sim.batch_lru_rps must clear"),
    _layer("sim.batch_lru_rps", "1/s", "higher", ["replay-lru-stream"], "replay-lru-stream throughput_rps"),
    _layer("sim.batch_over_fast", "ratio", "higher", ["replay-lru-stream"], "ROADMAP's 'batch >= fast'"),
    _layer("sim.batch_chunks", "count", "lower", ["replay-lru-stream"], "wasted work in replay-lru-stream"),
    _layer("sim.batch_compactions", "count", "lower", ["replay-lru-stream"], "wasted work in replay-lru-stream"),
    _layer("sim.batch_spills", "count", "lower", ["replay-lru-stream"], "wasted work in replay-lru-stream"),
    # -- traces: generators and the .bin format ---------------------------
    _layer("traces.gen_rps", "1/s", "higher", ["replay-scip", "replay-lru-stream"], "setup_s everywhere"),
    _layer("traces.read_bin_rps", "1/s", "higher", ["replay-scip"], "replay-scip throughput_rps (about a fifth)"),
    _layer("traces.chunk_scan_rps", "1/s", "higher", ["replay-lru-stream"], "replay-lru-stream throughput_rps"),
    _layer("traces.share_of_replay", "ratio", "lower", ["replay-scip", "replay-lru-stream"],
           "how much of the replay is reading the file"),
    # -- obs: the probe -----------------------------------------------------
    _layer("obs.traced_rps", "1/s", "higher", ["replay-obs"], "replay-obs throughput_rps; elsewhere no change"),
    _layer("obs.cost_ratio", "ratio", "lower", ["replay-obs"], "untraced / traced rate: ROADMAP's '<= 1.5x engine'"),
    _layer("obs.events", "count", "lower", ["replay-obs"], "work the probe does"),
    _layer("obs.us_per_event", "us", "lower", ["replay-obs"], "replay-obs cpu_us_per_req"),
    # -- serve: CacheService.get --------------------------------------------
    _layer("serve.get_self_us", "us", "lower", _SERVE,
           "get span - policy span - origin span (queue hop + asyncio hand-off): "
           "serve-closed throughput_rps and latency_p50_us; cluster-r2 diluted"),
    _layer("serve.policy_us", "us", "lower", _SERVE, "the cache share of a served request"),
    _layer("serve.origin_us", "us", "lower", _SERVE, "serve-paced latency_*"),
    _layer("serve.over_policy", "ratio", "lower", _SERVE, "get span / policy span: ROADMAP's '16x'"),
    _layer("serve.rps_1shard", "1/s", "higher", ["serve-closed"], "shard scaling (flat today)"),
    _layer("serve.rps_4shard", "1/s", "higher", ["serve-closed"], "shard scaling (flat today)"),
    _layer("serve.queue_depth_mean", "count", "lower", _SERVE, "serve-paced latency_*"),
    _layer("serve.coalesced_waits", "count", "higher", _SERVE, "origin fetches saved by single-flight"),
    _layer("serve.origin_fetches", "count", "lower", _SERVE, "useful / attempted with coalesced_waits"),
    _layer("serve.origin_retries", "count", "lower", _SERVE, "serve-paced latency_p99_us"),
    _layer("serve.inflight_peak", "count", "lower", _SERVE, "origin pool pressure"),
    _layer("serve.shed", "count", "lower", _SERVE, "failed_share"),
    _layer("serve.gen_late_p99_us", "us", "lower", ["serve-paced"], "validity of serve-paced: the generator's own lateness"),
    _layer("serve.p99_us_at_8000rps", "us", "lower", ["serve-paced"], "headroom above the paced rate"),
    _layer("serve.backlog_at_8000rps", "count", "lower", ["serve-paced"], "requests still open when the 8 k step stops sending"),
    # -- cluster: ClusterRouter.get -------------------------------------------
    _layer("cluster.us_per_req_r1", "us", "lower", ["cluster-r2"], "routing alone"),
    _layer("cluster.us_per_req_r2", "us", "lower", ["cluster-r2"], "cluster-r2 throughput_rps and latency_*"),
    _layer("cluster.over_serve", "ratio", "lower", ["cluster-r2"], "router.get span / node service.get span"),
    _layer("cluster.failovers", "count", "lower", ["cluster-r2"], "cluster-r2 latency_p99_us"),
    _layer("cluster.origin_direct", "count", "lower", ["cluster-r2"], "cluster-r2 failed_share"),
    _layer("cluster.fills", "count", "lower", ["cluster-r2"], "cluster-r2 throughput_rps (one queue hop each)"),
    _layer("cluster.dip_depth", "ratio", "lower", ["cluster-r2"], "cluster-r2 miss_ratio"),
    # -- net: NetEngine.serve ---------------------------------------------------
    _layer("net.serve_us", "us", "lower", ["net-tree"], "net-tree throughput_rps"),
    _layer("net.policy_us", "us", "lower", ["net-tree"], "the cache share of a routed request"),
    _layer("net.self_us", "us", "lower", ["net-tree"], "routing, placement, receiver hashing"),
    _layer("net.lookups_per_req", "count", "lower", ["net-tree"], "net.self_us"),
    _layer("net.copies_per_req", "count", "lower", ["net-tree"], "net.policy_us, miss_ratio"),
    _layer("net.origin_fetch_share", "ratio", "lower", ["net-tree"], "sim_latency_ms"),
    _layer("net.tier_miss_ratio.edge", "ratio", "lower", ["net-tree"], "sim_latency_ms"),
    _layer("net.tier_miss_ratio.mid1", "ratio", "lower", ["net-tree"], "sim_latency_ms"),
    _layer("net.tier_miss_ratio.root", "ratio", "lower", ["net-tree"], "sim_latency_ms"),
    _layer("net.sim_latency_ms", "ms", "lower", ["net-tree"], "the end-to-end sim_latency_ms, for BENCHMARK.json"),
    # -- the tracing itself -------------------------------------------------
    _layer("trace.overhead_ratio", "ratio", "lower", [], "none: traced wall / untraced wall, the price of these numbers"),
    _layer("trace.self_sum_ratio", "ratio", "lower", [], "none: layer self times / root spans, 1.0 +- 0.02"),
    _layer("trace.dominant_share", "ratio", "higher", [], "none: the named layer's share of the root spans"),
    _layer("trace.host_speed", "ratio", "higher", [],
           "none: reference-host seconds per host second during the traced run (its numbers are raw host time)"),
)

_BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def metric(name: str) -> Metric:
    return _BY_NAME[name]


#: ``BENCHMARK.json`` wants every workload to print every end-to-end metric
#: and none that can read 0, so three of the ten are carried differently
#: there (see README "The driver's view").
_DRIVER_ONLY = Metric(
    "served_share", "ratio", "higher", 0.001,
    note="1 - failed_share: the driver's metrics may not read 0",
)
_NOT_FOR_DRIVER = ("sim_latency_ms", "failed_share")
RUN_SECONDS = 8


def driver_end_to_end() -> Tuple[Metric, ...]:
    return tuple(m for m in END_TO_END if m.name not in _NOT_FOR_DRIVER) + (_DRIVER_ONLY,)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this catalogue implies."""
    return {
        "command": ["python3", "-m", "ladder"],
        "paths": ["ladder"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in driver_end_to_end()
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
