"""NetEngine against an oracle that shares none of its code.

``naive_replay`` below is the engine's contract written the slow way:
every request re-walks ``Topology.path``, asks ``ZipfReceivers.assign``
for its receiver, prices each hop with ``Link.transfer_ms`` and builds
its downstream list from scratch.  The engine resolves routes once,
assigns receivers in blocks and walks precomputed tuples; the two must
agree on every counter, float sums with ``==``, and leave every node's
policy in the same state.

The second half pins the engine's own entry points against each other:
``serve`` one request at a time, ``run`` over a list, over a generator,
and in two halves are the same replay (block boundaries, ``clock``
carry-over).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache.registry import make_policy
from repro.cluster.faults import FaultPlan
from repro.net import engine as engine_module
from repro.net.engine import NetEngine, NetResult
from repro.net.placement import make_placement
from repro.net.receivers import ZipfReceivers
from repro.net.topology import ORIGIN, Topology, fat_tree_topology, tree_topology
from repro.traces.binfmt import read_bin, write_bin
from repro.traces.cdn import make_workload

CAPACITIES = (150_000, 300_000, 600_000)
POLICIES = ("SCIP", "LRU", "LRU")


def line_topology() -> Topology:
    topo = Topology(seed=4)
    for name, cap, policy, tier in zip(("e", "m", "r"), CAPACITIES, POLICIES, ("edge", "mid1", "root")):
        topo.add_node(name, cap, policy=policy, tier=tier)
    # no latency term on the first link: a mid hit costs its transfer time
    # alone, so the per-request check sees the last bit of that product
    topo.add_link("e", "m", 0.0, 1.0)
    topo.add_link("m", "r", 15.0, 2.5)
    topo.add_link("r", ORIGIN, 70.0, 10.0)
    return topo


#: name -> (builder, receivers, an edge node, a mid node)
TOPOLOGIES = {
    "tree": (lambda: tree_topology((2, 2), CAPACITIES, POLICIES, seed=4), 8, "edge1", "mid10"),
    "fat": (lambda: fat_tree_topology((2, 2), CAPACITIES, POLICIES, seed=4), 8, "edge1", "mid10"),
    "line": (line_topology, None, "e", "m"),
}

FAULTS = {
    "none": lambda edge, mid: None,
    "edge-kill-restart": lambda edge, mid: FaultPlan().kill(edge, at=600).restart(edge, at=1_500),
    "mid-kill": lambda edge, mid: FaultPlan().kill(mid, at=700),
    "slow-recover": lambda edge, mid: (
        FaultPlan().slow(mid, at=300, extra_latency_s=0.0037).slow(edge, at=900, extra_latency_s=0.0011)
        .recover(mid, at=1_800)
    ),
}


def placement(name: str):
    return make_placement(name, p=0.6, seed=9) if name == "PROB" else make_placement(name)


def naive_replay(topo, strategy, receivers, plan, requests):
    """The engine's contract, one request at a time, nothing precomputed."""
    def fresh(node):
        spec = topo.nodes[node]
        return make_policy(spec.policy, spec.capacity, **spec.policy_kwargs)

    policies = {node: fresh(node) for node in topo.nodes}
    edges = topo.edge_nodes
    dead, slow, latencies = set(), {}, []
    out = dict(
        requests=0, cache_hits=0, origin_fetches=0, copies_placed=0, errors=0,
        latency_ms_sum=0.0, hop_latency_ms_sum=0.0, hit_flags=bytearray(),
        tiers={t: dict(lookups=0, hits=0, hit_bytes=0, lookup_bytes=0) for t in topo.tiers()},
    )
    for i, req in enumerate(requests):
        for act in plan.due(i) if plan is not None else ():
            if act.kind == "kill":
                dead.add(act.node)
                policies[act.node] = fresh(act.node)
            elif act.kind == "restart":
                dead.discard(act.node)
            elif act.kind == "slow":
                slow[act.node] = act.extra_latency_s * 1e3
            elif act.kind == "recover":
                slow.pop(act.node, None)
        out["requests"] += 1
        edge = edges[(receivers.assign(i) if receivers is not None else 0) % len(edges)]
        lookup_ms, climbed, hit = 0.0, [], False
        for link in topo.path(edge, req.key):
            node = link.src
            if node not in dead:
                lookup_ms += slow.get(node, 0.0)
                tier = out["tiers"][topo.nodes[node].tier]
                tier["lookups"] += 1
                tier["lookup_bytes"] += req.size
                if policies[node].contains(req.key):
                    policies[node].request(req)
                    tier["hits"] += 1
                    tier["hit_bytes"] += req.size
                    hit = True
                    break
            climbed.append(link)
        out["cache_hits" if hit else "origin_fetches"] += 1
        out["hit_flags"].append(int(hit))
        hops_ms = 0.0
        for link in climbed:
            hops_ms += 2.0 * link.latency_ms + link.transfer_ms(req.size)
        downstream = [link.src for link in reversed(climbed) if link.src not in dead]
        if downstream:
            for node in strategy.copy_nodes(downstream, req.key, req.size, i):
                policies[node].request(req)
                out["copies_placed"] += 1
        latencies.append(lookup_ms + hops_ms)
        out["latency_ms_sum"] += latencies[-1]
        out["hop_latency_ms_sum"] += hops_ms
    return out, policies, latencies


def node_states(policies) -> dict:
    return {
        node: (policy.stats.as_dict(), policy.used, policy.resident_keys())
        for node, policy in policies.items()
    }


def engine_state(eng: NetEngine):
    return dataclasses.asdict(eng.result), eng.clock, node_states(eng.policies)


@pytest.fixture(scope="module")
def requests():
    reqs = make_workload("CDN-T", n_requests=2_500, seed=8).requests
    assert len(reqs) > 2_001  # past every fault offset and two 1 000-blocks
    return reqs


@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("place", ["LCE", "LCD", "PROB"])
@pytest.mark.parametrize("shape", sorted(TOPOLOGIES))
def test_engine_equals_naive_walker(requests, shape, place, faults):
    build, n_receivers, edge, mid = TOPOLOGIES[shape]
    receivers = ZipfReceivers(n_receivers, beta=0.8, seed=4) if n_receivers else None

    eng = NetEngine(build(), placement(place), receivers=receivers, fault_plan=FAULTS[faults](edge, mid))
    res = eng.run(requests)
    want, want_policies, _ = naive_replay(
        build(), placement(place), receivers, FAULTS[faults](edge, mid), requests
    )

    assert dataclasses.asdict(res) == want  # floats and hit flags with ==
    assert res.as_dict() == NetResult(**want).as_dict()
    assert node_states(eng.policies) == node_states(want_policies)
    # the scenario exercised what it claims to
    assert res.cache_hits and res.copies_placed and res.origin_fetches
    assert any(p.stats.evictions for p in eng.policies.values())
    if faults == "slow-recover":
        assert res.latency_ms_sum > res.hop_latency_ms_sum
    if shape == "fat":
        assert len(eng._routes) > len(eng.edges)  # per-key routes, resolved once each


@pytest.mark.parametrize("shape", ["line", "fat"])
def test_per_request_latency_is_bit_equal(requests, shape):
    # The sums above absorb a last-bit difference in one hop's price; the
    # value ``serve`` returns does not.
    build, n_receivers, edge, mid = TOPOLOGIES[shape]
    receivers = ZipfReceivers(n_receivers, seed=6) if n_receivers else None
    plan = FAULTS["slow-recover"]
    eng = NetEngine(build(), "LCD", receivers=receivers, fault_plan=plan(edge, mid))
    *_, want = naive_replay(build(), placement("LCD"), receivers, plan(edge, mid), requests)
    assert [eng.serve(req) for req in requests] == want


def test_fat_tree_resolves_each_chain_once():
    eng = NetEngine(fat_tree_topology((4, 2)), "LCE", receivers=ZipfReceivers(16))
    eng.run(make_workload("CDN-T", n_requests=1_500, seed=1))
    # two mids to choose from, one root: two routes per edge
    assert len(eng._routes) == 2 * len(eng.edges)
    assert all(route is None for route in eng._edge_routes)


class TestEntryPointsAgree:
    """One replay, four spellings (blocks shrunk so the ~2 000-request
    trace crosses two block boundaries)."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_BLOCK", 1_000)

    @staticmethod
    def engine(shape="tree"):
        build, n_receivers, edge, mid = TOPOLOGIES[shape]
        plan = FaultPlan().kill(edge, at=999).slow(mid, at=1_000, extra_latency_s=0.002).restart(edge, at=2_001)
        return NetEngine(
            build(), placement("PROB"), receivers=ZipfReceivers(n_receivers, seed=2), fault_plan=plan
        )

    @pytest.mark.parametrize("shape", ["tree", "fat"])
    def test_serve_run_generator_and_halves(self, requests, shape):
        one_by_one = self.engine(shape)
        latencies = [one_by_one.serve(req) for req in requests]
        want = engine_state(one_by_one)
        assert sum(latencies) == pytest.approx(one_by_one.result.latency_ms_sum)

        whole = self.engine(shape)
        whole.run(requests)
        assert engine_state(whole) == want

        streamed = self.engine(shape)
        streamed.run(req for req in requests)
        assert engine_state(streamed) == want

        halves = self.engine(shape)
        halves.run(requests[:1_234])
        assert halves.clock == 1_234
        halves.run(iter(requests[1_234:]))
        assert engine_state(halves) == want

    def test_run_bin_equals_run_over_read_bin(self, tmp_path):
        path = tmp_path / "t.bin"
        write_bin(make_workload("CDN-T", n_requests=22_000, seed=3), path)
        trace = read_bin(path)
        chunk = 7_001
        assert len(trace.requests) % chunk and len(trace.requests) > 2 * chunk

        from_file = self.engine()
        from_file.run_bin(path, chunk_size=chunk)
        in_memory = self.engine()
        in_memory.run(trace)
        assert from_file.result.requests == len(trace.requests)
        assert engine_state(from_file) == engine_state(in_memory)
