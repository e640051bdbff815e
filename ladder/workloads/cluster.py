"""``cluster-r2``: three replicated nodes with one killed and restarted.

The only workload with a failure path: the node the ring sends the most
trace keys to dies at 40 % of the trace and comes back cold at 70 %.
Requests never fail — dead owners are skipped, a fully dead preference
list goes to origin — so ``failed_share`` measures a promise kept.
"""

from __future__ import annotations

import asyncio
from functools import partial
from time import perf_counter

from repro import api
from repro.cache.registry import resolve_policy, unregister_policy

from ladder import checks
from ladder.harness import Measured
from ladder.loadgen import closed_loop, count_failed, miss_ratios, windows_of
from ladder.spans import SpanLog, trace_call, trace_origin, traced_policy_factory
from ladder.workloads.serve import CLIENTS, WINDOWS

CACHE_FRACTION = 0.02
KILL_AT, RESTART_AT = 0.4, 0.7
TRACED_POLICY = "ladder.SCIP"
#: windows of the hit-ratio series the dip is read from.
DIP_WINDOWS = 10


def dip_depth(hits, kill_at: int) -> float:
    """Hit ratio of the last whole window before the kill minus the worst
    window after it (the cache is still warming when the node dies, so an
    average over the earlier windows would sit below every later one)."""
    window = max(len(hits) // DIP_WINDOWS, 1)
    series = [sum(hits[i : i + window]) / window for i in range(0, len(hits) - window + 1, window)]
    pre, post = series[: kill_at // window], series[kill_at // window :]
    if not pre or not post:
        return 0.0
    return max(pre[-1] - min(post), 0.0)


class ClusterR2:
    name = "cluster-r2"

    def sizes(self, seconds: float, smoke: bool) -> dict:
        return {"workload": "CDN-T", "requests": int(18_000 * seconds), "clients": CLIENTS,
                "n_nodes": 3, "replication": 2, "n_shards": 1, "cache_fraction": CACHE_FRACTION,
                "kill_at": KILL_AT, "restart_at": RESTART_AT,
                "traced_requests": 5_000 if smoke else 30_000}

    def config(self, state: dict, replication: int = 2, policy: str = "SCIP") -> api.ClusterConfig:
        return api.ClusterConfig(n_nodes=3, replication=replication, policy=policy, n_shards=1,
                                 capacity_bytes=state["capacity"], seed=state["seed"])

    def setup(self, seed: int, sizes: dict, tmp: str) -> dict:
        trace = api.make_workload(sizes["workload"], sizes["requests"], seed=seed)
        state = {
            "requests": trace.requests,
            "capacity": max(int(trace.working_set_size * CACHE_FRACTION), 3),
            "seed": seed,
            "traced": sizes["traced_requests"],
        }
        # the victim is the node owning the largest share of the trace's keys
        ring = api.build_cluster(self.config(state)).ring
        load = ring.load_distribution([req.key for req in trace.requests])
        state["victim"] = max(sorted(load), key=load.get)
        return state

    @staticmethod
    def plan(state: dict, n: int) -> api.FaultPlan:
        victim = state["victim"]
        return api.FaultPlan().kill(victim, at=int(n * KILL_AT)).restart(victim, at=int(n * RESTART_AT))

    async def _drive(self, router, state: dict, reqs, get=None, on_send=None, m=None) -> list:
        """The whole trace, window by window; the fault plan is keyed to the
        router's own request clock, so it fires across the windows."""
        faults = partial(router.apply_faults, self.plan(state, len(reqs)))
        loads = []
        for window in windows_of(reqs, WINDOWS):
            load = await closed_loop(get or router.get, window, CLIENTS, before=faults, on_send=on_send)
            if m is not None:
                m.add(load.n, load.wall_s, load.cpu_s, load.latency_ns)
            loads.append(load)
        return loads

    async def _run(self, state: dict, m: Measured) -> None:
        reqs = state["requests"]
        t = perf_counter()
        router = api.build_cluster(self.config(state))
        async with router:
            m.prepare_s = perf_counter() - t
            m.start()
            loads = await self._drive(router, state, reqs, m=m)
            stats = router.stats()
            m.violations += checks.check_cluster(router, len(reqs))
        for load in loads:
            m.violations += checks.check_load(load, self.name)
        m.miss_ratio, m.byte_miss_ratio = miss_ratios(reqs, *loads)
        m.failed = count_failed(*loads)
        m.detail.update(failovers=stats["failovers"], fills=stats["fills"],
                        origin_direct=stats["origin_direct"])

    def measure(self, state: dict, seconds: float) -> Measured:
        m = Measured()
        asyncio.run(self._run(state, m))
        return m

    # -- the traced run --------------------------------------------------------
    async def _traced(self, state: dict, log: SpanLog, reqs, replication: int) -> dict:
        """One pass with spans around ``router.get``, each node's ``get``,
        the policy and the origin."""
        router = api.build_cluster(self.config(state, replication, TRACED_POLICY))
        on_send = trace_origin(router.origin, log, "serve.get")
        for node in router.nodes.values():
            node.get = trace_call(node.get, "serve.get", log, "cluster.get")
        get = trace_call(router.get, "cluster.get", log, None)
        async with router:
            t = perf_counter()
            loads = await self._drive(router, state, reqs, get=get, on_send=on_send)
            wall = perf_counter() - t
            stats = router.stats()
        return {"wall": wall, "stats": stats, "hits": [hit for load in loads for hit in load.hit]}

    async def _untraced(self, state: dict, reqs) -> float:
        router = api.build_cluster(self.config(state))
        async with router:
            t = perf_counter()
            await self._drive(router, state, reqs)
            return perf_counter() - t

    def trace(self, state: dict, log: SpanLog) -> tuple:
        reqs = state["requests"][: state["traced"]]
        n = len(reqs)
        untraced_s = asyncio.run(self._untraced(state, reqs))
        api.register_policy(
            TRACED_POLICY, traced_policy_factory(resolve_policy("SCIP"), log, "serve.get"), replace=True
        )
        try:
            r1 = asyncio.run(self._traced(state, log, reqs, replication=1))
            r1_self = log.self_times()[0]["cluster.get"] / n / 1e3
            log.rows.clear()  # the R=2 pass is the one written out
            r2 = asyncio.run(self._traced(state, log, reqs, replication=2))
        finally:
            unregister_policy(TRACED_POLICY)
        self_ns, span_ns, _ = log.self_times()
        stats = r2["stats"]
        out = {
            "cluster.us_per_req_r1": r1_self,
            "cluster.us_per_req_r2": self_ns["cluster.get"] / n / 1e3,
            "cluster.over_serve": span_ns["cluster.get"] / span_ns["serve.get"],
            "cluster.failovers": stats["failovers"],
            "cluster.origin_direct": stats["origin_direct"],
            "cluster.fills": stats["fills"],
            "cluster.dip_depth": dip_depth(r2["hits"], int(n * KILL_AT)),
        }
        return out, r2["wall"], untraced_s
