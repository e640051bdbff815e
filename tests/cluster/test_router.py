"""ClusterRouter fault tolerance: the never-raise pin, failover paths,
replication fills, and the fault-plan control plane.

The headline acceptance test for the cluster PR lives here:
``test_get_never_raises_through_kill_and_restart`` replays a trace while a
fault plan kills and cold-restarts a node mid-stream and asserts every
single request resolves to a :class:`ClusterOutcome` — no exception may
escape ``ClusterRouter.get`` for a data-plane condition.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import ClusterConfig, FaultPlan, build_cluster
from repro.obs.probe import Probe
from repro.sim.request import Request
from repro.traces.drift import make_drift_trace


class ListSink:
    def __init__(self):
        self.records = []

    def write(self, rec):
        self.records.append(rec)


def _router(n_nodes=3, replication=2, probe=None, **kwargs):
    config = ClusterConfig(
        n_nodes=n_nodes,
        replication=replication,
        policy=kwargs.pop("policy", "LRU"),
        capacity_bytes=kwargs.pop("capacity_bytes", 300_000),
        retry_timeout=None,
        **kwargs,
    )
    return build_cluster(config, probe=probe)


def _key_owned_by(router, node_id, start=0):
    """A key whose *primary* owner is ``node_id``."""
    for key in range(start, start + 100_000):
        if router.owners_for(key)[0] == node_id:
            return key
    raise AssertionError(f"no key routed to {node_id}")  # pragma: no cover


class TestFailover:
    def test_replica_serves_when_primary_dies(self):
        async def run():
            sink = ListSink()
            router = _router(probe=Probe([sink]))
            async with router:
                key = _key_owned_by(router, "n0")
                primary, replica = router.owners_for(key)[:2]
                # Miss at the primary; write-all fill warms the replica.
                first = await router.get(Request(0, key, 1000))
                await router.kill_node(primary)
                second = await router.get(Request(1, key, 1000))
            return sink, first, second, primary, replica

        sink, first, second, primary, replica = asyncio.run(run())
        assert not first.hit and first.node == primary and not first.failover
        # The replica was filled, so the failover read is a HIT.
        assert second.hit and second.node == replica and second.failover
        events = [r["event"] for r in sink.records]
        assert "node_down" in events and "failover" in events
        fo = next(r for r in sink.records if r["event"] == "failover")
        assert fo["frm"] == primary and fo["to"] == replica

    def test_r1_failover_is_cold_miss(self):
        async def run():
            router = _router(replication=1)
            async with router:
                key = _key_owned_by(router, "n1")
                await router.get(Request(0, key, 1000))
                await router.kill_node("n1")
                out = await router.get(Request(1, key, 1000))
            return out

        out = asyncio.run(run())
        # With R=1 nobody was filled: the successor serves, but cold.
        assert not out.hit and out.failover and out.node != "n1"

    def test_all_owners_down_degrades_to_origin(self):
        async def run():
            router = _router(n_nodes=2, replication=2)
            async with router:
                await router.kill_node("n0")
                await router.kill_node("n1")
                out = await router.get(Request(0, 42, 1000))
                health = router.health()
            return out, health

        out, health = asyncio.run(run())
        assert out.served_from == "origin" and out.node is None
        assert out.failover and out.error is None and out.ok
        assert health["live"] == []

    def test_restart_comes_back_cold(self):
        async def run():
            router = _router()
            async with router:
                key = _key_owned_by(router, "n2")
                await router.get(Request(0, key, 1000))
                await router.kill_node("n2")
                await router.restart_node("n2")
                out = await router.get(Request(1, key, 1000))
                node = router.nodes["n2"]
            return out, node.starts, node.kills

        out, starts, kills = asyncio.run(run())
        # Back up and serving (no failover), but state was wiped: cold miss.
        assert not out.hit and not out.failover and out.node == "n2"
        assert starts == 2 and kills == 1

    def test_kill_and_restart_idempotent(self):
        async def run():
            router = _router()
            async with router:
                await router.kill_node("n0")
                await router.kill_node("n0")
                await router.restart_node("n0")
                await router.restart_node("n0")
                return router.stats()

        stats = asyncio.run(run())
        assert stats["node_downs"] == 1 and stats["node_ups"] == 1


class TestNeverRaises:
    def test_get_never_raises_through_kill_and_restart(self):
        """The PR's acceptance pin: node failure during a replay never
        raises out of ``ClusterRouter.get``."""

        async def run():
            trace = make_drift_trace("flash", n_requests=6_000, seed=3)
            n = len(trace.requests)
            plan = (
                FaultPlan()
                .kill("n0", at=n // 5)
                .kill("n1", at=2 * n // 5)  # two of three nodes down at once
                .restart("n0", at=3 * n // 5)
                .restart("n1", at=4 * n // 5)
            )
            router = _router()
            outcomes = []
            async with router:
                for req in trace.requests:
                    await router.apply_faults(plan)
                    outcomes.append(await router.get(req))
                stats = router.stats()
            return outcomes, stats, plan

        outcomes, stats, plan = asyncio.run(run())
        assert len(outcomes) == stats["requests"]
        assert all(o is not None for o in outcomes)
        assert stats["unhandled_exceptions"] == 0
        assert stats["errors"] == 0
        assert stats["failovers"] > 0
        assert stats["node_downs"] == 2 and stats["node_ups"] == 2
        assert plan.exhausted

    def test_get_before_start_is_programming_error(self):
        router = _router()

        async def run():
            await router.get(Request(0, 1, 100))

        with pytest.raises(RuntimeError, match="before start"):
            asyncio.run(run())


class TestSlowNode:
    def test_slow_node_still_serves_correctly(self):
        async def run():
            router = _router()
            async with router:
                key = _key_owned_by(router, "n0")
                router.set_slow("n0", 0.001)
                miss = await router.get(Request(0, key, 1000))
                hit = await router.get(Request(1, key, 1000))
                router.set_slow("n0", 0.0)
            return miss, hit

        miss, hit = asyncio.run(run())
        assert not miss.hit and hit.hit
        assert miss.node == "n0" and not miss.failover

    def test_slow_recover_via_fault_plan(self):
        async def run():
            plan = FaultPlan().slow("n1", at=0, extra_latency_s=0.005).recover("n1", at=1)
            router = _router()
            async with router:
                await router.apply_faults(plan, offset=0)
                slow_during = router.nodes["n1"].slow_s
                await router.apply_faults(plan, offset=5)
                slow_after = router.nodes["n1"].slow_s
            return slow_during, slow_after

        slow_during, slow_after = asyncio.run(run())
        assert slow_during == 0.005 and slow_after == 0.0

    def test_negative_slow_rejected(self):
        async def run():
            router = _router()
            async with router:
                router.set_slow("n0", -1.0)

        with pytest.raises(ValueError, match=">= 0"):
            asyncio.run(run())


class TestReplicationFill:
    def test_fills_counted_only_with_replicas(self):
        async def run():
            results = {}
            for r in (1, 2):
                router = _router(replication=r)
                async with router:
                    for i in range(500):
                        await router.get(Request(i, i % 100, 1000))
                    results[r] = router.stats()["fills"]
            return results

        fills = asyncio.run(run())
        assert fills[1] == 0 and fills[2] > 0

    @pytest.mark.parametrize("policy", ["SIEVE", "ARC", "GDSF"])
    def test_non_queue_policy_replicas_are_filled(self, policy):
        """A fill is an admit, not a migration: policies that take no
        ``import_resident`` still warm their replicas, so the failover read
        after the primary dies is a hit."""

        async def run():
            router = _router(policy=policy)
            async with router:
                key = _key_owned_by(router, "n0")
                primary, replica = router.owners_for(key)[:2]
                await router.get(Request(0, key, 1000))
                fills = router.stats()["fills"]
                await router.kill_node(primary)
                second = await router.get(Request(1, key, 1000))
            return fills, second, replica

        fills, second, replica = asyncio.run(run())
        assert fills == 1
        assert second.hit and second.node == replica and second.failover


class TestConstruction:
    def test_replication_beyond_fleet_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            ClusterConfig(n_nodes=2, replication=3)

    def test_unknown_policy_rejected_with_menu(self):
        with pytest.raises(KeyError, match="unknown policy"):
            ClusterConfig(policy="NOPE")

    def test_config_round_trip(self):
        config = ClusterConfig(n_nodes=5, replication=3, policy="SIEVE")
        rebuilt = ClusterConfig.from_dict(config.as_dict())
        assert rebuilt == config
