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
carry-over) — under PROB with faults, and under LCE with none, with a
plan that runs out mid-trace, with a kill that is never undone and with
a metrics registry attached.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache.registry import available_policies, make_policy, resolve_policy
from repro.cluster.faults import FaultPlan
from repro.net import engine as engine_module
from repro.net.engine import NetEngine, NetResult
from repro.net.placement import make_placement
from repro.net.receivers import ZipfReceivers
from repro.net.topology import ORIGIN, Topology, fat_tree_topology, tree_topology
from repro.obs.metrics import MetricsRegistry
from repro.traces.binfmt import read_bin, write_bin
from repro.traces.cdn import make_workload

CAPACITIES = (150_000, 300_000, 600_000)
POLICIES = ("SCIP", "LRU", "LRU")


def line_topology(policies=POLICIES) -> Topology:
    topo = Topology(seed=4)
    for name, cap, policy, tier in zip(("e", "m", "r"), CAPACITIES, policies, ("edge", "mid1", "root")):
        topo.add_node(name, cap, policy=policy, tier=tier)
    # no latency term on the first link: a mid hit costs its transfer time
    # alone, so the per-request check sees the last bit of that product
    topo.add_link("e", "m", 0.0, 1.0)
    topo.add_link("m", "r", 15.0, 2.5)
    topo.add_link("r", ORIGIN, 70.0, 10.0)
    return topo


def skip_topology() -> Topology:
    """Two edges under a mid and a third straight under the root: the
    root is one hop up on one route and two on the others, so no
    per-depth level order serves both."""
    topo = Topology(seed=5)
    for name in ("a", "b", "c"):
        topo.add_node(name, CAPACITIES[0], policy=POLICIES[0], tier="edge")
    topo.add_node("m", CAPACITIES[1], policy=POLICIES[1], tier="mid1")
    topo.add_node("r", CAPACITIES[2], policy=POLICIES[2], tier="root")
    topo.add_link("a", "m", 3.0, 1.0)
    topo.add_link("b", "m", 4.5, 2.0)
    topo.add_link("m", "r", 15.0, 2.5)
    topo.add_link("c", "r", 11.0, 0.7)
    topo.add_link("r", ORIGIN, 70.0, 10.0)
    return topo


#: name -> (builder, receivers, an edge node, a mid node)
TOPOLOGIES = {
    "tree": (lambda: tree_topology((2, 2), CAPACITIES, POLICIES, seed=4), 8, "edge1", "mid10"),
    "fat": (lambda: fat_tree_topology((2, 2), CAPACITIES, POLICIES, seed=4), 8, "edge1", "mid10"),
    "line": (line_topology, None, "e", "m"),
    "skip": (skip_topology, 6, "a", "m"),
}

#: Registry policies a network can run: an oracle needs the future.
NET_POLICIES = [name for name in available_policies() if not resolve_policy(name).needs_future]

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
        node: (
            policy.stats.as_dict(),
            policy.used,
            policy.resident_keys() if hasattr(policy, "resident_keys") else None,
        )
        for node, policy in policies.items()
    }


def engine_state(eng: NetEngine):
    return dataclasses.asdict(eng.result), eng.clock, node_states(eng.policies)


@pytest.fixture(scope="module")
def requests():
    reqs = make_workload("CDN-T", n_requests=2_500, seed=8).requests
    assert len(reqs) > 2_001  # past every fault offset and two 1 000-blocks
    return reqs


@pytest.fixture(scope="module")
def long_requests():
    reqs = make_workload("CDN-T", n_requests=4_000, seed=8).requests
    assert len(reqs) > 3_001  # two 1 000-blocks after the second
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
    if shape == "skip":
        # the root sees requests one hop up (from c) and two (through m)
        mid, root = res.tiers["mid1"], res.tiers["root"]
        assert 0 < mid["lookups"] - mid["hits"] < root["lookups"]


@pytest.mark.parametrize("name", NET_POLICIES)
def test_every_policy_equals_naive_walker(requests, name):
    eng = NetEngine(line_topology((name,) * 3), "LCE")
    res = eng.run(requests)
    want, want_policies, _ = naive_replay(line_topology((name,) * 3), placement("LCE"), None, None, requests)
    assert dataclasses.asdict(res) == want
    assert node_states(eng.policies) == node_states(want_policies)
    assert res.origin_fetches < res.requests


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

    # -- LCE: the feed-forward case ------------------------------------------
    @staticmethod
    def lce_engine(shape="tree", plan=None, registry=None):
        build, n_receivers, _, _ = TOPOLOGIES[shape]
        return NetEngine(
            build(), "LCE", receivers=ZipfReceivers(n_receivers, seed=2), fault_plan=plan, registry=registry
        )

    @staticmethod
    def assert_spellings_agree(make, requests):
        """``serve`` per request (the walker) equals ``run`` over a list,
        a generator and two halves; returns the walker's state."""
        one_by_one = make()
        for req in requests:
            one_by_one.serve(req)
        want = engine_state(one_by_one)

        whole = make()
        whole.run(requests)
        assert engine_state(whole) == want

        streamed = make()
        streamed.run(req for req in requests)
        assert engine_state(streamed) == want

        halves = make()
        halves.run(requests[:1_234])
        halves.run(iter(requests[1_234:]))
        assert engine_state(halves) == want
        return want

    @pytest.mark.parametrize("shape", ["tree", "fat", "skip"])
    def test_lce_without_faults(self, requests, shape, tmp_path):
        want = self.assert_spellings_agree(lambda: self.lce_engine(shape), requests)
        assert want[0]["copies_placed"] and want[0]["cache_hits"]

        path = tmp_path / "t.bin"
        write_bin(make_workload("CDN-T", n_requests=2_500, seed=8), path)
        from_file = self.lce_engine(shape)
        from_file.run_bin(path, chunk_size=777)
        walker = self.lce_engine(shape)
        for req in read_bin(path).requests:
            walker.serve(req)
        assert engine_state(from_file) == engine_state(walker)

    @pytest.mark.parametrize("shape", ["tree", "skip"])
    def test_lce_plan_that_runs_out_mid_trace(self, long_requests, shape):
        # the last action lands in the second 1 000-block; the third block
        # starts with the plan spent and every node live again
        requests = long_requests
        _, _, edge, mid = TOPOLOGIES[shape]

        def make():
            plan = FaultPlan().kill(edge, at=600).slow(mid, at=800, extra_latency_s=0.004)
            return self.lce_engine(shape, plan.recover(mid, at=1_200).restart(edge, at=1_500))

        want = self.assert_spellings_agree(make, requests)
        plan = FaultPlan().kill(edge, at=600).slow(mid, at=800, extra_latency_s=0.004)
        naive, naive_policies, _ = naive_replay(
            TOPOLOGIES[shape][0](), placement("LCE"), ZipfReceivers(TOPOLOGIES[shape][1], seed=2),
            plan.recover(mid, at=1_200).restart(edge, at=1_500), requests,
        )
        assert want[0] == naive
        assert want[2] == node_states(naive_policies)
        assert want[0]["latency_ms_sum"] > want[0]["hop_latency_ms_sum"]

    @pytest.mark.parametrize("victim", ["edge", "mid"])
    def test_lce_kill_without_restart(self, requests, victim):
        # the plan is spent after the kill, but a node stays dead
        _, n_receivers, edge, mid = TOPOLOGIES["tree"]
        node = edge if victim == "edge" else mid
        eng = self.lce_engine("tree", FaultPlan().kill(node, at=700))
        eng.run(requests)
        want, want_policies, _ = naive_replay(
            TOPOLOGIES["tree"][0](), placement("LCE"), ZipfReceivers(n_receivers, seed=2),
            FaultPlan().kill(node, at=700), requests,
        )
        assert dataclasses.asdict(eng.result) == want
        assert node_states(eng.policies) == node_states(want_policies)
        assert eng.policies[node].stats.requests == 0  # nothing reached it after the kill

    @pytest.mark.parametrize("shape", ["tree", "skip"])
    def test_lce_registry_does_not_change_the_replay(self, requests, shape):
        registry = MetricsRegistry()
        observed = self.lce_engine(shape, registry=registry)
        observed.run(requests)
        plain = self.lce_engine(shape)
        plain.run(requests)
        assert engine_state(observed) == engine_state(plain)
        hits = sum(registry.counter("net_tier_hits", tier=t).value for t in plain.result.tiers)
        assert hits == plain.result.cache_hits


@pytest.mark.parametrize(
    "case, walked",
    [
        ("lce", 0),
        ("plan-runs-out", 2_000),  # the block holding the last action walks
        ("kill-no-restart", None),  # None: every request
        ("lcd", None),
        ("registry", None),
    ],
)
def test_run_sweeps_exactly_the_feed_forward_blocks(long_requests, monkeypatch, case, walked):
    requests = long_requests
    monkeypatch.setattr(engine_module, "_BLOCK", 1_000)
    build, n_receivers, edge, _ = TOPOLOGIES["tree"]
    kwargs = {
        "plan-runs-out": dict(fault_plan=FaultPlan().kill(edge, at=600).restart(edge, at=1_500)),
        "kill-no-restart": dict(fault_plan=FaultPlan().kill(edge, at=600)),
        "lcd": dict(placement="LCD"),
        "registry": dict(registry=MetricsRegistry()),
    }.get(case, {})
    eng = NetEngine(build(), **{"placement": "LCE", **kwargs}, receivers=ZipfReceivers(n_receivers, seed=2))
    serve = eng._serve
    calls = []
    eng._serve = lambda req, receiver: calls.append(req) or serve(req, receiver)
    eng.run(requests)
    assert len(calls) == (len(requests) if walked is None else walked)
    assert eng.result.requests == eng.clock == len(requests)
