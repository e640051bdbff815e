"""The two ``CacheService`` workloads: a closed loop at zero origin
latency, and an open loop at a fixed rate against a slow, failing origin.

Both replay the first fifth of the trace untimed to fill the cache, then
drive the rest window by window (forty of them, the host reference timed
in between) against the one warm service.  The same service is the
layer under test in both; what differs is which part of it carries the
cost — the queue hop and hand-off (closed), or the fetch path (paced).
"""

from __future__ import annotations

import asyncio
from functools import partial
from time import perf_counter, process_time

from repro import api

from ladder import checks
from ladder.harness import Measured, percentile
from ladder.loadgen import LoadResult, closed_loop, count_failed, miss_ratios, open_loop, windows_of
from ladder.spans import SpanLog, trace_call, trace_origin, traced_policy_factory

CLIENTS = 16
CACHE_FRACTION = 0.02
WINDOWS = 40


class _Serve:
    """What the two serve workloads share: the trace, the service, the fill."""

    workload = "CDN-T"
    origin = dict(latency_mean=0.0, latency_jitter=0.0)
    retry = api.RetryPolicy()
    #: what tracing is charged in: a closed loop slows down, wall shows it.
    cost_clock = staticmethod(perf_counter)
    #: a closed loop runs as fast as the host lets it.
    host_bound = True
    #: windows of the timed pass.
    windows = WINDOWS

    def setup(self, seed: int, sizes: dict, tmp: str) -> dict:
        trace = api.make_workload(self.workload, sizes["requests"], seed=seed)
        return {
            "requests": trace.requests,
            "capacity": max(int(trace.working_set_size * CACHE_FRACTION), 4),
            "fill": int(len(trace) * sizes["fill_share"]),
            "seed": seed,
            "sizes": sizes,
        }

    def service(self, state: dict, n_shards: int = 4, policy_factory=None) -> api.CacheService:
        origin = api.SimulatedOrigin(api.OriginConfig(seed=state["seed"], **self.origin))
        return api.CacheService(
            policy_factory or partial(api.make_policy, "SCIP"),
            state["capacity"],
            n_shards=n_shards,
            origin=origin,
            retry=self.retry,
            queue_depth=256,
            seed=state["seed"],
        )

    async def drive(self, service, requests, **hooks) -> LoadResult:
        raise NotImplementedError

    async def _run(self, state: dict, m: Measured) -> None:
        reqs, fill_n = state["requests"], state["fill"]
        t = perf_counter()
        service = self.service(state)
        async with service:
            loads = [await closed_loop(service.get, reqs[:fill_n], CLIENTS)]
            m.prepare_s = perf_counter() - t
            m.start()
            for window in windows_of(reqs[fill_n:], self.windows):
                load = await self.drive(service, window)
                m.add(load.n, load.wall_s, load.cpu_s, load.latency_ns)
                loads.append(load)
            m.violations += checks.check_service(service, len(reqs), self.name)
        for load in loads:
            m.violations += checks.check_load(load, self.name)
        m.miss_ratio, m.byte_miss_ratio = miss_ratios(reqs, *loads)
        m.attempted = len(reqs)  # the fill is traffic too
        m.failed = count_failed(*loads)
        late = [v for load in loads for v in load.late_ns]
        if late:
            m.detail["generator_late_p99_us"] = percentile(late, 99) / 1e3

    def measure(self, state: dict, seconds: float) -> Measured:
        m = Measured(host_bound=self.host_bound)
        asyncio.run(self._run(state, m))
        return m

    # -- the traced run --------------------------------------------------------
    async def _traced(self, state: dict, log: SpanLog, reqs, fill_n: int, out: dict) -> float:
        """Fill, then drive ``reqs[fill_n:]`` with spans around ``get``, the
        policy and the origin; returns the driven pass's cost on ``cost_clock``."""
        factory = traced_policy_factory(partial(api.make_policy, "SCIP"), log, "serve.get")
        service = self.service(state, policy_factory=factory)
        on_send = trace_origin(service.origin, log, "serve.get")
        async with service:
            await closed_loop(service.get, reqs[:fill_n], CLIENTS, on_send=on_send)
            log.rows.clear()  # the fill is set-up, not the traced region
            get = trace_call(service.get, "serve.get", log, None)
            c, t = self.cost_clock(), perf_counter()
            load = await self.drive(service, reqs[fill_n:], get=get, on_send=on_send)
            wall, cost = perf_counter() - t, self.cost_clock() - c
            out["serve.queue_depth_mean"] = service.metrics.queue_depth.mean
            out["serve.coalesced_waits"] = service.metrics.coalesced.value
            out["serve.origin_fetches"] = service.metrics.origin_fetches.value
            out["serve.origin_retries"] = service.metrics.origin_retries.value
            out["serve.inflight_peak"] = service.origin.stats()["inflight_peak"]
            out["serve.shed"] = service.metrics.shed.value
            spans = len(log.rows)
            await self.after_traced(service, state, out)
            del log.rows[spans:]
        n = load.n
        self_ns, span_ns, _ = log.self_times()
        policy_us = span_ns.get("cache.request", 0) / n / 1e3
        out["serve.get_self_us"] = self_ns["serve.get"] / n / 1e3
        out["serve.policy_us"] = policy_us
        out["serve.origin_us"] = span_ns.get("serve.origin_fetch", 0) / n / 1e3
        out["serve.over_policy"] = (wall / n * 1e6) / policy_us
        if load.late_ns:
            out["serve.gen_late_p99_us"] = percentile(load.late_ns, 99) / 1e3
        return cost

    async def after_traced(self, service, state: dict, out: dict) -> None:
        """More rungs on the still-running traced service."""

    async def _untraced(self, state: dict, reqs, fill_n: int, n_shards: int = 4) -> float:
        service = self.service(state, n_shards=n_shards)
        async with service:
            await closed_loop(service.get, reqs[:fill_n], CLIENTS)
            c = self.cost_clock()
            await self.drive(service, reqs[fill_n:])
            return self.cost_clock() - c


class ServeClosed(_Serve):
    name = "serve-closed"

    def sizes(self, seconds: float, smoke: bool) -> dict:
        timed = int(35_000 * seconds)
        return {"workload": self.workload, "requests": timed * 5 // 4, "fill_share": 0.2,
                "clients": CLIENTS, "n_shards": 4, "queue_depth": 256,
                "cache_fraction": CACHE_FRACTION, "traced_requests": 5_000 if smoke else 30_000}

    async def drive(self, service, requests, get=None, on_send=None) -> LoadResult:
        return await closed_loop(get or service.get, requests, CLIENTS, on_send=on_send)

    def trace(self, state: dict, log: SpanLog) -> tuple:
        traced = state["sizes"]["traced_requests"]
        fill_n = min(state["fill"], traced // 4)
        reqs = state["requests"][: fill_n + traced]
        out: dict = {}
        walls = {k: asyncio.run(self._untraced(state, reqs, fill_n, n_shards=k)) for k in (1, 4)}
        traced_s = asyncio.run(self._traced(state, log, reqs, fill_n, out))
        driven = len(reqs) - fill_n
        out["serve.rps_1shard"] = driven / walls[1]
        out["serve.rps_4shard"] = driven / walls[4]
        return out, traced_s, walls[4]


class ServePaced(_Serve):
    name = "serve-paced"
    workload = "CDN-W"
    origin = dict(latency_mean=0.002, failure_rate=0.01)
    retry = api.RetryPolicy(timeout=0.5, max_retries=3)
    rate = 4000
    step_rate = 8000
    step_seconds = 2
    #: an open loop's wall time is its schedule; tracing shows in the CPU.
    cost_clock = staticmethod(process_time)
    #: the schedule and the origin's sleeps run on the clock, not on the host's speed.
    host_bound = False
    #: 1 600 latency samples per window: 16 beyond the 99th percentile.
    windows = 20

    def sizes(self, seconds: float, smoke: bool) -> dict:
        timed = int(self.rate * seconds)
        return {"workload": self.workload, "requests": timed * 5 // 4, "fill_share": 0.2,
                "rate": self.rate, "step_rate": self.step_rate, "step_seconds": self.step_seconds,
                "n_shards": 4, "queue_depth": 256, "cache_fraction": CACHE_FRACTION}

    async def drive(self, service, requests, get=None, on_send=None) -> LoadResult:
        return await open_loop(get or service.get, requests, self.rate, on_send=on_send)

    def trace(self, state: dict, log: SpanLog) -> tuple:
        """Half the trace at the paced rate, then the 8 k step on what is left."""
        reqs, fill_n = state["requests"], state["fill"]
        paced = reqs[: fill_n + (len(reqs) - fill_n) // 2]
        out: dict = {}
        untraced_s = asyncio.run(self._untraced(state, paced, fill_n))
        state["step"] = reqs[len(paced) : len(paced) + self.step_rate * self.step_seconds]
        traced_s = asyncio.run(self._traced(state, log, paced, fill_n, out))
        return out, traced_s, untraced_s

    async def after_traced(self, service, state: dict, out: dict) -> None:
        step = await open_loop(service.get, state["step"], self.step_rate)
        lat = [v for v in step.latency_ns if v >= 0]
        out["serve.p99_us_at_8000rps"] = percentile(lat, 99) / 1e3
        out["serve.backlog_at_8000rps"] = step.backlog
