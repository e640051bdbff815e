"""Cluster-layer tracing: failover hop spans reconcile with the failover
counter (the acceptance invariant), replica fills and rebalances get
spans, and the traced bench doc carries a usable span stream."""

from __future__ import annotations

import asyncio

from repro.cluster.bench import run_cluster_bench
from repro.cluster.node import ClusterNode
from repro.cluster.rebalance import Rebalancer
from repro.cluster.router import ClusterRouter
from repro.obs.sinks import RingBufferSink
from repro.obs.span import TraceConfig, Tracer
from repro.obs.tracereport import build_traces, read_spans
from repro.serve import CacheService, OriginConfig, SimulatedOrigin
from repro.cache.lru import LRUCache
from repro.sim.request import Request


def _node(name, origin):
    return ClusterNode(
        name,
        lambda: CacheService(
            LRUCache, 500_000, n_shards=1, origin=origin
        ),
    )


def _router(n=3, replication=2):
    origin = SimulatedOrigin(OriginConfig(latency_mean=0.0005))
    nodes = [_node(f"n{i}", origin) for i in range(n)]
    return ClusterRouter(nodes, replication=replication)


class TestFailoverHopSpans:
    def test_kill_scenario_hops_equal_failover_counter(self, tmp_path):
        """Acceptance: one failover_hop span per counted failover, even at
        a low head-sampling rate (tail-keep retains every failover trace)."""
        span_out = str(tmp_path / "spans.jsonl.gz")
        doc = run_cluster_bench(
            trace="flash",
            n_requests=8_000,
            n_nodes=3,
            replications=(2,),
            seed=4,
            trace_sample=0.05,
            span_out=span_out,
            quick=True,
        )
        scenario = doc.results["scenarios"]["R2"]
        assert scenario["failovers"] > 0  # the kill actually caused failovers
        tracing = scenario["tracing"]
        assert tracing["failover_hop_spans"] == scenario["failovers"]
        assert tracing["traces"]["orphan_spans"] == 0
        assert tracing["traces"]["unclosed_spans"] == 0
        # And the on-disk stream agrees with the in-memory aggregate.
        records = read_spans(span_out)
        hops = [r for r in records if r["name"] == "failover_hop"]
        assert len(hops) == scenario["failovers"]
        for hop in hops:
            assert hop["tags"]["failover"] is True
            assert hop["tags"]["frm"] != hop["tags"]["to"]

    def test_healthy_cluster_has_no_hop_spans(self):
        doc = run_cluster_bench(
            trace="diurnal",
            n_requests=3_000,
            n_nodes=3,
            replications=(1,),
            kill_frac=0.98,  # kill so late nothing happens before the end
            restart_frac=0.99,
            seed=1,
            trace_sample=1.0,
            quick=True,
        )
        scenario = doc.results["scenarios"]["R1"]
        assert scenario["tracing"]["failover_hop_spans"] == scenario["failovers"]


class TestClusterSpanTopology:
    def test_failover_trace_has_hop_then_node_serve(self):
        async def run():
            sink = RingBufferSink()
            tracer = Tracer(sinks=[sink], config=TraceConfig(sample=1.0))
            router = _router(n=3, replication=2)
            async with router:
                # Find a key and kill its primary so the next get must hop.
                key = 42
                primary = router.ring.route(key)
                await router.kill_node(primary)
                root = tracer.start_trace("request", key=key)
                out = await router.get(Request(0, key, 100), root)
                root.end(served_from=out.served_from)
            tracer.close()
            return sink.as_list(), out, primary

        records, out, primary = asyncio.run(run())
        by_name = {}
        for r in records:
            by_name.setdefault(r["name"], []).append(r)
        assert len(by_name["failover_hop"]) == 1
        hop = by_name["failover_hop"][0]
        assert hop["tags"]["frm"] == primary
        serve = by_name["node_serve"][0]
        assert serve["parent"] == hop["span"]  # hop wraps the replica serve
        root_rec = by_name["request"][0]
        assert hop["parent"] == root_rec["span"]

    def test_replica_fill_spans_attach_to_serving_parent(self):
        async def run():
            sink = RingBufferSink()
            tracer = Tracer(sinks=[sink], config=TraceConfig(sample=1.0))
            router = _router(n=3, replication=2)
            async with router:
                root = tracer.start_trace("request", key=7)
                await router.get(Request(0, 7, 100), root)  # miss -> fill
                root.end()
            tracer.close()
            return sink.as_list()

        records = asyncio.run(run())
        fills = [r for r in records if r["name"] == "replica_fill"]
        assert len(fills) == 1  # replication=2: one replica beyond primary
        assert "filled" in fills[0]["tags"]

    def test_rebalance_gets_its_own_trace(self):
        async def run():
            sink = RingBufferSink()
            tracer = Tracer(sinks=[sink], config=TraceConfig(sample=1.0))
            router = _router(n=2, replication=1)
            origin = SimulatedOrigin(OriginConfig(latency_mean=0.0005))
            async with router:
                # Warm some residents so the handoff has something to move.
                for i in range(20):
                    await router.get(Request(0, i, 100))
                reb = Rebalancer(router, tracer=tracer)
                await reb.add_node(_node("n9", origin), warm=True)
            tracer.close()
            return sink.as_list()

        records = asyncio.run(run())
        traces = build_traces(records)
        reb_traces = [
            t
            for t in traces.values()
            if any(r["name"] == "rebalance" for r in t)
        ]
        assert len(reb_traces) == 1
        (spans,) = reb_traces
        root = next(r for r in spans if r["parent"] is None)
        assert root["name"] == "rebalance"
        assert root["tags"]["action"] == "add"
        assert "ring_size" in root["tags"]
        handoff = next(r for r in spans if r["name"] == "warm_handoff")
        assert handoff["parent"] == root["span"]
        assert handoff["tags"]["moved"] == root["tags"]["moved"]
