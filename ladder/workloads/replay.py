"""The three file-replay workloads: SCIP from a ``.bin``, LRU streamed
through the batch engine, and SCIP under the obs probe.

A replay is one call, so it has no windows: a fixed-size unit is repeated
until ``--seconds`` is up and the medians over the units are reported.
For the same reason a child span of a synchronous call cannot be opened
from outside; the traced run times the child in a separate pass over the
same input (the policy-only loop, the bare chunk scan, the untraced
replay) and records it under the call it is part of.
"""

from __future__ import annotations

import gc
import os
from time import perf_counter, perf_counter_ns, process_time
from typing import NamedTuple

from repro import api

from ladder import checks
from ladder.harness import Measured
from ladder.spans import SpanLog

CACHE_FRACTION = 0.02


def replay_file(policy: str, path: str):
    """``.bin`` file to result, as ``repro simulate --trace-file`` does it:
    the batch core when the policy has one, else materialise and replay;
    capacity from the header's working-set estimate."""
    with api.BinTraceReader(path) as reader:
        capacity = max(int(reader.wss_estimate * CACHE_FRACTION), 1)
    if api.batch_supported(policy):
        return api.simulate_batch(policy, path, capacity)
    return api.simulate(api.make_policy(policy, capacity), api.read_bin(path))


class Timed(NamedTuple):
    out: object
    wall_s: float
    cpu_s: float
    start_ns: int
    end_ns: int


def timed(fn, *args, **kwargs) -> Timed:
    """One call, timed, after a collection so the last call's garbage is not charged to it."""
    gc.collect()
    c0, t0 = process_time(), perf_counter_ns()
    out = fn(*args, **kwargs)
    t1, c1 = perf_counter_ns(), process_time()
    return Timed(out, (t1 - t0) / 1e9, c1 - c0, t0, t1)


def add_separate_pass(log: SpanLog, name: str, run: Timed, parent: str, parent_ns: int) -> None:
    """Record a child that was timed in its own pass.  It cannot have taken
    longer than the call it is part of: when its pass reads longer (noise,
    or an inlined loop beating the method calls), it is clipped to it."""
    end = min(run.end_ns, run.start_ns + parent_ns)
    log.add((name, run.start_ns, end, parent, 0))


def untraced_seconds(fn, *args) -> float:
    """The traced run's yardstick: the faster of two plain calls (the first
    call of a path in a fresh process pays for its lazy imports)."""
    return min(timed(fn, *args).wall_s for _ in range(2))


def repeat(m: Measured, unit, seconds: float, floor: int = 3):
    """Run ``unit() -> SimResult`` until ``seconds`` are up (at least
    ``floor`` times); every repetition must decide exactly the same."""
    deadline = perf_counter() + seconds
    first = last = None
    m.start()
    while len(m.units) < floor or perf_counter() < deadline:
        run = timed(unit)
        last = run.out
        st = last.policy_obj.stats
        decided = (last.requests, st.hits, st.bytes_hit, st.bytes_missed)
        if first is None:
            first = decided
        elif decided != first:
            m.violations.append(f"repetition {len(m.units)} decided {decided}, the first {first}")
        m.add(last.requests, run.wall_s, run.cpu_s)
    m.miss_ratio, m.byte_miss_ratio = last.miss_ratio, last.byte_miss_ratio
    m.violations += checks.check_policy(last.policy_obj, last.requests, "replay")
    return last


def policy_loop(name: str, capacity: int, requests) -> Timed:
    """The policy-only rung: a tight loop over ``policy.request``."""
    request = api.make_policy(name, capacity).request

    def loop():
        for req in requests:
            request(req)

    return timed(loop)


def write_trace(workload: str, n: int, path: str, seed: int) -> dict:
    t = perf_counter()
    header = api.workload_to_bin(workload, n, path, seed=seed)
    return {"path": path, "header": header, "gen_s": perf_counter() - t}


class ReplayScip:
    name = "replay-scip"

    def sizes(self, seconds: float, smoke: bool) -> dict:
        return {"workload": "CDN-T", "requests": 30_000 if smoke else 100_000,
                "cache_fraction": CACHE_FRACTION}

    def setup(self, seed: int, sizes: dict, tmp: str) -> dict:
        return write_trace(sizes["workload"], sizes["requests"], os.path.join(tmp, "scip.bin"), seed)

    def measure(self, state: dict, seconds: float) -> Measured:
        m = Measured()
        repeat(m, lambda: replay_file("SCIP", state["path"]), seconds)
        return m

    def trace(self, state: dict, log: SpanLog) -> tuple:
        path = state["path"]
        # the yardstick dispatches as the timed run does: if SCIP ever gets a
        # batch core, trace.overhead_ratio becomes the gap between the two paths
        untraced_s = untraced_seconds(replay_file, "SCIP", path)
        # the traced pass: the object replay, opened at its two phases
        gc.collect()
        t0 = perf_counter_ns()
        trace = api.read_bin(path)
        t1 = perf_counter_ns()
        with api.BinTraceReader(path) as reader:
            capacity = max(int(reader.wss_estimate * CACHE_FRACTION), 1)
        fast = api.simulate(api.make_policy("SCIP", capacity), trace, fast=True)
        t2 = perf_counter_ns()
        log.add(("replay.file_to_result", t0, t2, None, 0))
        log.add(("traces.read_bin", t0, t1, "replay.file_to_result", 0))
        log.add(("sim.simulate", t1, t2, "replay.file_to_result", 0))
        n = len(trace)
        scip = policy_loop("SCIP", capacity, trace.requests)
        add_separate_pass(log, "cache.request_loop", scip, "sim.simulate", t2 - t1)
        scip_us = scip.wall_s / n * 1e6
        lru = policy_loop("LRU", capacity, trace.requests)
        rich = timed(api.simulate, api.make_policy("SCIP", capacity), trace, fast=False)
        fast_s = (t2 - t1) / 1e9
        st = fast.policy_obj.stats
        out = {
            "cache.scip_decide_us": scip_us,
            "cache.lru_decide_us": lru.wall_s / n * 1e6,
            "cache.evictions_per_miss": st.evictions / max(st.misses, 1),
            "cache.resident_objects": len(fast.policy_obj),
            "sim.rich_rps": n / rich.wall_s,
            "sim.fast_rps": n / fast_s,
            "sim.loop_self_us": fast_s / n * 1e6 - scip_us,
            "traces.gen_rps": n / state["gen_s"],
            "traces.read_bin_rps": n / ((t1 - t0) / 1e9),
            "traces.share_of_replay": (t1 - t0) / (t2 - t0),
        }
        return out, (t2 - t0) / 1e9, untraced_s


class ReplayLruStream:
    name = "replay-lru-stream"

    def sizes(self, seconds: float, smoke: bool) -> dict:
        return {"workload": "CDN-T", "requests": 100_000 if smoke else 500_000,
                "cache_fraction": CACHE_FRACTION,
                "prefix": 20_000 if smoke else 200_000}

    def setup(self, seed: int, sizes: dict, tmp: str) -> dict:
        state = write_trace(sizes["workload"], sizes["requests"], os.path.join(tmp, "lru.bin"), seed)
        state["prefix"] = sizes["prefix"]
        return state

    @staticmethod
    def _prefix(state: dict) -> "api.Trace":
        """The first ``prefix`` requests of the file, as objects."""
        with api.BinTraceReader(state["path"]) as reader:
            times, keys, sizes = next(iter(reader.iter_chunks(state["prefix"])))
            rows = zip(times.tolist(), keys.tolist(), sizes.tolist())
            return api.Trace([api.Request(t, k, s) for t, k, s in rows], name="lru-prefix")

    def measure(self, state: dict, seconds: float) -> Measured:
        m = Measured()
        repeat(m, lambda: replay_file("LRU", state["path"]), seconds)
        prefix = self._prefix(state)
        capacity = max(int(prefix.working_set_size * CACHE_FRACTION), 1)
        m.violations += checks.check_lru_paths(prefix.requests, capacity)
        return m

    def trace(self, state: dict, log: SpanLog) -> tuple:
        path = state["path"]
        untraced_s = untraced_seconds(replay_file, "LRU", path)
        replay = timed(replay_file, "LRU", path)
        log.add(("sim.simulate_batch", replay.start_ns, replay.end_ns, None, 0))

        def scan():
            """Every chunk read, nothing replayed."""
            total = 0
            with api.BinTraceReader(path) as reader:
                for times, keys, sizes in reader.iter_chunks(1 << 20):
                    total += int(times[-1]) + int(keys.sum() & 1) + int(sizes.sum())
            return total

        scanned = timed(scan)
        add_separate_pass(log, "traces.iter_chunks", scanned, "sim.simulate_batch",
                          replay.end_ns - replay.start_ns)
        n = replay.out.requests
        prefix = self._prefix(state)
        capacity = max(int(prefix.working_set_size * CACHE_FRACTION), 1)
        fast_s = timed(api.simulate, api.make_policy("LRU", capacity), prefix, fast=True).wall_s
        batch_s = timed(api.simulate_batch, "LRU", prefix, capacity).wall_s
        registry = replay.out.obs["registry"]
        out = {
            "sim.fast_lru_rps": len(prefix) / fast_s,
            "sim.batch_lru_rps": len(prefix) / batch_s,
            "sim.batch_over_fast": fast_s / batch_s,
            "sim.batch_chunks": registry["batch_chunks"][""]["value"],
            "sim.batch_compactions": registry["batch_compactions"][""]["value"],
            "sim.batch_spills": registry["batch_spills"][""]["value"],
            "traces.gen_rps": n / state["gen_s"],
            "traces.chunk_scan_rps": n / scanned.wall_s,
            "traces.share_of_replay": scanned.wall_s / replay.wall_s,
        }
        return out, replay.wall_s, untraced_s


class ReplayObs:
    name = "replay-obs"

    def sizes(self, seconds: float, smoke: bool) -> dict:
        scip = ReplayScip().sizes(seconds, smoke)
        return {**scip, "prefix": scip["requests"] // 3}

    def setup(self, seed: int, sizes: dict, tmp: str) -> dict:
        """The first third of the ``replay-scip`` trace, in memory."""
        path = os.path.join(tmp, "obs.bin")
        api.workload_to_bin(sizes["workload"], sizes["requests"], path, seed=seed)
        trace = api.Trace(api.read_bin(path).requests[: sizes["prefix"]], name="obs-prefix")
        capacity = max(int(trace.working_set_size * CACHE_FRACTION), 1)
        return {"trace": trace, "capacity": capacity}

    @staticmethod
    def _replay(state: dict, obs):
        return api.simulate(api.make_policy("SCIP", state["capacity"]), state["trace"], obs=obs)

    def measure(self, state: dict, seconds: float) -> Measured:
        m = Measured()
        last = repeat(m, lambda: self._replay(state, api.ObsConfig()), seconds)
        untraced = self._replay(state, None)
        if (untraced.miss_ratio, untraced.byte_miss_ratio) != (last.miss_ratio, last.byte_miss_ratio):
            m.violations.append("the probe changed the decisions: traced and untraced miss ratios differ")
        m.detail["events"] = last.obs["events_emitted"]
        return m

    def trace(self, state: dict, log: SpanLog) -> tuple:
        n = len(state["trace"])
        untraced_s = untraced_seconds(self._replay, state, api.ObsConfig())
        plain = timed(self._replay, state, None)
        probed = timed(self._replay, state, api.ObsConfig())
        log.add(("obs.simulate_probed", probed.start_ns, probed.end_ns, None, 0))
        add_separate_pass(log, "sim.simulate", plain, "obs.simulate_probed", probed.end_ns - probed.start_ns)
        loop = policy_loop("SCIP", state["capacity"], state["trace"].requests)
        add_separate_pass(log, "cache.request_loop", loop, "sim.simulate", plain.end_ns - plain.start_ns)
        events = probed.out.obs["events_emitted"]
        plain_s, probed_s = plain.wall_s, probed.wall_s
        out = {
            "obs.traced_rps": n / probed_s,
            "obs.cost_ratio": probed_s / plain_s,
            "obs.events": events,
            "obs.us_per_event": (probed_s - plain_s) / max(events, 1) * 1e6,
        }
        return out, probed_s, untraced_s
