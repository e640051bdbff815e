"""``net-tree``: the synchronous multi-tier path.

Eight SCIP edges, two LRU mids and one LRU root share 2 % of the working
set 1:2:4 by tier; 64 Zipf receivers pick the edge; LCE leaves a copy at
every node on the way down.  ``engine.run`` is a loop over
``engine.serve``, so one pass is cut into forty windows by handing it
forty slices.
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns, process_time

from repro import api
from repro.cache.registry import resolve_policy, unregister_policy

from ladder import checks
from ladder.harness import Measured
from ladder.loadgen import windows_of
from ladder.spans import SpanLog, traced_policy_factory

CACHE_FRACTION = 0.02
BRANCHING = (4, 2)
TIER_RATIOS = (1, 2, 4)
TIER_POLICIES = ("SCIP", "LRU", "LRU")
RECEIVERS = 64
WINDOWS = 40


def tier_capacities(wss: int) -> list:
    """Per-node capacities: the tier totals split ``wss * fraction``
    1:2:4, each divided by its 8 / 2 / 1 nodes."""
    total = int(wss * CACHE_FRACTION)
    counts = (BRANCHING[0] * BRANCHING[1], BRANCHING[1], 1)
    return [max(total * r // sum(TIER_RATIOS) // c, 1) for r, c in zip(TIER_RATIOS, counts)]


class NetTree:
    name = "net-tree"

    def sizes(self, seconds: float, smoke: bool) -> dict:
        return {"workload": "CDN-T", "requests": int(28_000 * seconds), "branching": BRANCHING,
                "tier_ratios": TIER_RATIOS, "tier_policies": TIER_POLICIES, "placement": "LCE",
                "receivers": RECEIVERS, "cache_fraction": CACHE_FRACTION,
                "traced_requests": 5_000 if smoke else 30_000}

    def setup(self, seed: int, sizes: dict, tmp: str) -> dict:
        trace = api.make_workload(sizes["workload"], sizes["requests"], seed=seed)
        return {"requests": trace.requests, "capacities": tier_capacities(trace.working_set_size),
                "seed": seed, "traced": sizes["traced_requests"]}

    @staticmethod
    def engine(state: dict, policies=TIER_POLICIES) -> api.NetEngine:
        topology = api.tree_topology(BRANCHING, state["capacities"], policies, seed=state["seed"])
        return api.NetEngine(topology, placement="LCE",
                             receivers=api.ZipfReceivers(RECEIVERS, seed=state["seed"]))

    def measure(self, state: dict, seconds: float) -> Measured:
        m = Measured()
        reqs = state["requests"]
        n = len(reqs)
        t = perf_counter()
        engine = self.engine(state)
        m.prepare_s = perf_counter() - t
        m.start()
        for window in windows_of(reqs, WINDOWS):
            c0, t0 = process_time(), perf_counter()
            engine.run(window)
            m.add(len(window), perf_counter() - t0, process_time() - c0)
        res = engine.result
        m.violations += checks.check_net(engine, n)
        total_bytes = sum(req.size for req in reqs)
        missed_bytes = sum(req.size for req, hit in zip(reqs, res.hit_flags) if not hit)
        m.miss_ratio = 1.0 - res.hit_ratio
        m.byte_miss_ratio = missed_bytes / max(total_bytes, 1)
        m.sim_latency_ms = res.mean_latency_ms
        m.failed = res.errors
        return m

    def trace(self, state: dict, log: SpanLog) -> tuple:
        reqs = state["requests"][: state["traced"]]
        n = len(reqs)
        t = perf_counter()
        self.engine(state).run(reqs)
        untraced_s = perf_counter() - t

        current = [-1]
        names = {p: f"ladder.{p}" for p in set(TIER_POLICIES)}
        for p, name in names.items():
            factory = traced_policy_factory(resolve_policy(p), log, "net.serve", current)
            api.register_policy(name, factory, replace=True)
        try:
            engine = self.engine(state, tuple(names[p] for p in TIER_POLICIES))
        finally:
            for name in names.values():
                unregister_policy(name)
        add, serve = log.add, engine.serve
        t = perf_counter()
        for req in reqs:
            current[0] = req.time
            t0 = perf_counter_ns()
            serve(req)
            add(("net.serve", t0, perf_counter_ns(), None, req.time))
        traced_s = perf_counter() - t

        res = engine.result
        self_ns, span_ns, _ = log.self_times()
        tiers = res.tier_miss_ratios()
        out = {
            "net.serve_us": span_ns["net.serve"] / n / 1e3,
            "net.policy_us": (span_ns.get("cache.request", 0) + span_ns.get("cache.contains", 0)) / n / 1e3,
            "net.self_us": self_ns["net.serve"] / n / 1e3,
            "net.lookups_per_req": sum(st["lookups"] for st in res.tiers.values()) / n,
            "net.copies_per_req": res.copies_placed / n,
            "net.origin_fetch_share": res.origin_fetches / n,
            "net.sim_latency_ms": res.mean_latency_ms,
        }
        for tier in ("edge", "mid1", "root"):
            out[f"net.tier_miss_ratio.{tier}"] = tiers[tier]
        return out, traced_s, untraced_s
