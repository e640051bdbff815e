"""NetEngine behaviour: accounting, spans, faults, placement wiring.

The satellite pins live here:

* hop latency sums equal the per-span ``net_hop`` ``sim_ms`` totals;
* removing nodes via FaultPlan never raises — including killing every
  node on a path, killing unknown nodes, and restarting cold.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict

from repro.cluster.faults import FaultPlan
from repro.net.engine import NetEngine
from repro.net.receivers import ZipfReceivers
from repro.net.topology import ORIGIN, Topology, tree_topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from repro.obs.span import TraceConfig, Tracer
from repro.sim.request import Request
from repro.traces.cdn import make_workload


class Collect:
    def __init__(self):
        self.recs = []

    def write(self, rec):
        self.recs.append(rec)


def small_tree(**overrides):
    kwargs = dict(branching=(2, 2), capacities=(300_000, 600_000, 1_200_000))
    kwargs.update(overrides)
    return tree_topology(**kwargs)


def small_trace(n=6_000, seed=5):
    return make_workload("CDN-T", n_requests=n, seed=seed)


class TestAccounting:
    def test_every_request_served_once(self):
        sink = Collect()
        eng = NetEngine(
            small_tree(),
            "LCE",
            receivers=ZipfReceivers(8, beta=0.8),
            probe=Probe([sink]),
        )
        res = eng.run(small_trace())
        counts = Counter(r["event"] for r in sink.recs)
        assert res.errors == 0
        assert res.cache_hits + res.origin_fetches == res.requests
        assert counts["net_tier_hit"] == res.cache_hits
        assert counts["net_origin_fetch"] == res.origin_fetches
        assert len(res.hit_flags) == res.requests
        assert sum(res.hit_flags) == res.cache_hits

    def test_tier_lookups_nest(self):
        # Upper tiers only see what the tier below missed.
        eng = NetEngine(small_tree(), "LCE", receivers=ZipfReceivers(4))
        res = eng.run(small_trace())
        t = res.tiers
        assert t["edge"]["lookups"] == res.requests
        assert t["mid1"]["lookups"] == t["edge"]["lookups"] - t["edge"]["hits"]
        assert t["root"]["lookups"] == t["mid1"]["lookups"] - t["mid1"]["hits"]
        assert res.origin_fetches == t["root"]["lookups"] - t["root"]["hits"]

    def test_registry_counters_match_result(self):
        reg = MetricsRegistry()
        eng = NetEngine(
            small_tree(), "LCD", receivers=ZipfReceivers(4), registry=reg
        )
        res = eng.run(small_trace())
        snap = reg.snapshot()
        hits = sum(p["value"] for p in snap["net_tier_hits"].values())
        assert hits == res.cache_hits
        assert (
            snap["net_origin_fetches"][""]["value"] == res.origin_fetches
        )
        assert snap["net_copies_placed"][""]["value"] == res.copies_placed
        assert snap["net_request_latency_ms"][""]["count"] == res.requests

    def test_lce_lcd_copy_counts_differ(self):
        trace = small_trace()
        runs = {}
        for place in ("LCE", "LCD"):
            eng = NetEngine(small_tree(), place, receivers=ZipfReceivers(4))
            runs[place] = eng.run(trace)
        assert runs["LCE"].copies_placed > runs["LCD"].copies_placed

    def test_single_receiver_defaults_to_first_edge(self):
        eng = NetEngine(small_tree(), "LCE")
        res = eng.run(small_trace(n=500))
        # only edge0's subtree sees traffic
        assert res.tiers["edge"]["lookups"] == res.requests


class TestSpanLatencyProperty:
    def test_net_hop_sim_ms_sums_to_request_latency(self):
        # With no slow faults the latency model is exactly the hop sum, so
        # per-trace: sum(net_hop.sim_ms) == request.sim_ms, and globally:
        # sum over spans == engine latency_ms_sum.
        sink = Collect()
        tracer = Tracer(sinks=[sink], config=TraceConfig(sample=1.0))
        eng = NetEngine(
            small_tree(),
            "LCD",
            receivers=ZipfReceivers(8, beta=0.8),
            tracer=tracer,
        )
        res = eng.run(small_trace(n=2_000))
        tracer.close()
        hop_by_trace = defaultdict(float)
        root_by_trace = {}
        for rec in sink.recs:
            if rec["name"] == "net_hop":
                hop_by_trace[rec["trace"]] += rec["tags"]["sim_ms"]
            elif rec["parent"] is None:
                root_by_trace[rec["trace"]] = rec["tags"]["sim_ms"]
        assert len(root_by_trace) == res.requests
        for trace_id, total in root_by_trace.items():
            assert abs(hop_by_trace.get(trace_id, 0.0) - total) < 1e-9
        assert abs(sum(root_by_trace.values()) - res.latency_ms_sum) < 1e-6
        assert abs(res.hop_latency_ms_sum - res.latency_ms_sum) < 1e-9

    def test_slow_fault_latency_is_outside_hop_sum(self):
        sink = Collect()
        tracer = Tracer(sinks=[sink], config=TraceConfig(sample=1.0))
        plan = FaultPlan().slow("edge0", at=0, extra_latency_s=0.004)
        eng = NetEngine(small_tree(), "LCE", fault_plan=plan, tracer=tracer)
        res = eng.run(small_trace(n=300))
        tracer.close()
        assert res.latency_ms_sum > res.hop_latency_ms_sum
        # every request paid the 4 ms lookup penalty at the slow edge
        assert res.latency_ms_sum - res.hop_latency_ms_sum == 4.0 * res.requests


class TestObservedPathPinned:
    #: SHA-256 of the canonical JSON below, recorded from the commit before
    #: the request body's three observer ladders were folded behind one flag.
    DIGEST = "8629f090c36c27d664f82a867c557050e3fcb95c14fd1f0fb91062735ee26d3d"

    def test_probe_registry_and_spans_are_what_the_parent_produced(self):
        # Everything an observer can see, in the order it sees it: probe
        # events (names and fields), the registry snapshot, and each
        # request's span tree (names, parents, status, tags — not ids or
        # wall times).  A fault of each kind fires mid-trace.
        events, spans = Collect(), Collect()
        registry = MetricsRegistry()
        tracer = Tracer(sinks=[spans], config=TraceConfig(sample=1.0))
        plan = (
            FaultPlan()
            .kill("edge1", at=1_000)
            .slow("mid10", at=1_500, extra_latency_s=0.003)
            .restart("edge1", at=2_500)
            .recover("mid10", at=3_500)
        )
        eng = NetEngine(
            small_tree(),
            "PROB",
            receivers=ZipfReceivers(8, beta=0.8),
            fault_plan=plan,
            registry=registry,
            probe=Probe([events]),
            tracer=tracer,
        )
        res = eng.run(small_trace(n=5_000))
        tracer.close()
        names = {rec["span"]: rec["name"] for rec in spans.recs}
        doc = {
            "events": events.recs,
            "registry": registry.snapshot(),
            "spans": [
                [rec["name"], names.get(rec["parent"]), rec["status"], rec.get("tags")]
                for rec in spans.recs
            ],
        }
        kinds = Counter(rec["event"] for rec in events.recs)
        assert kinds["net_node_down"] == kinds["net_node_up"] == 1
        assert kinds["net_tier_hit"] and kinds["net_origin_fetch"] and kinds["net_placement"]
        assert sum(1 for s in doc["spans"] if s[0] == "request") == res.requests
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == self.DIGEST


class TestFaultPlanNeverRaises:
    def test_kill_restart_mid_trace(self):
        sink = Collect()
        plan = (
            FaultPlan()
            .kill("edge0", at=1_000)
            .kill("mid10", at=1_500)
            .restart("edge0", at=3_000)
            .restart("mid10", at=3_500)
        )
        eng = NetEngine(
            small_tree(),
            "LCE",
            receivers=ZipfReceivers(8),
            fault_plan=plan,
            probe=Probe([sink]),
        )
        res = eng.run(small_trace())
        assert res.errors == 0
        counts = Counter(r["event"] for r in sink.recs)
        assert counts["net_node_down"] == 2
        assert counts["net_node_up"] == 2

    def test_kill_every_cache_node_still_serves(self):
        topo = small_tree()
        plan = FaultPlan()
        for i, name in enumerate(sorted(topo.nodes)):
            plan.kill(name, at=10 + i)
        eng = NetEngine(topo, "LCE", receivers=ZipfReceivers(4), fault_plan=plan)
        trace = small_trace(n=1_000)
        res = eng.run(trace)
        assert res.errors == 0
        assert res.requests == len(trace.requests)
        # after the massacre everything is an origin fetch
        assert res.origin_fetches > res.requests * 0.9

    def test_unknown_node_in_plan_is_ignored(self):
        plan = FaultPlan().kill("no-such-pop", at=5).restart("no-such-pop", at=9)
        eng = NetEngine(small_tree(), "LCE", fault_plan=plan)
        res = eng.run(small_trace(n=100))
        assert res.errors == 0

    def test_kill_discards_state_restart_is_cold(self):
        key_req = [Request(t, 42, 1_000) for t in range(10)]
        topo = Topology()
        topo.add_node("e", 100_000, tier="edge")
        topo.add_link("e", ORIGIN, 10.0)
        plan = FaultPlan().kill("e", at=5).restart("e", at=7)
        eng = NetEngine(topo, "LCE", fault_plan=plan)
        res = eng.run(key_req)
        # warm hits 1-4, dead at 5-6 (origin), cold miss at 7, hits 8-9
        assert list(res.hit_flags) == [0, 1, 1, 1, 1, 0, 0, 0, 1, 1]

    def test_dead_node_skips_placement(self):
        topo = small_tree()
        plan = FaultPlan().kill("mid10", at=0).kill("mid11", at=0)
        eng = NetEngine(topo, "LCE", receivers=ZipfReceivers(8), fault_plan=plan)
        res = eng.run(small_trace(n=2_000))
        assert res.errors == 0
        assert res.tiers["mid1"]["lookups"] == 0
