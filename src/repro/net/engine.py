"""NetEngine: trace replay over a cache network with on-path placement.

The engine materialises one cache policy per :class:`~repro.net.topology.
NetNode` (via the unified registry), attaches Zipf-rated receivers to the
topology's edge nodes, and replays a trace.  :meth:`NetEngine.serve` walks
one request; :meth:`NetEngine.run` walks each block of requests the same
way unless the block is feed-forward (below), which it sweeps instead.
The walk:

1. **Route.**  The request's receiver (``ZipfReceivers`` hashes the
   request index; :meth:`NetEngine.run` assigns a block of them at a
   time) picks an edge node, and the edge's *route* — the uplink chain
   :meth:`Topology.path` would give, resolved once at construction with
   its link constants — is what the walk iterates.  Only an edge with a
   choice of uplinks (fat tree) still routes per key, and each distinct
   chain is resolved once.
2. **Lookup walk** (bottom → top).  At each *live* cache node the engine
   asks ``policy.contains(key)`` — a pure lookup, no admission side
   effects.  The first hit is the serving point; a hit calls
   ``policy.request(req)`` there so the policy counts it and applies its
   own promotion logic (SCIP's smart promotion, LRU's MRU move, …).
   Nothing below origin hit ⇒ origin fetch.
3. **Placement walk** (top → bottom).  The response retraces the path;
   the :class:`~repro.net.placement.PlacementStrategy` picks which
   downstream caches admit a copy, and admission at a chosen node is that
   node's own ``policy.request(req)`` — so SCIP's *insertion* bandit
   decides MRU/LRU entry exactly as it would on a single cache.
4. **Latency.**  Each link traversed costs ``latency_ms`` up,
   ``latency_ms + transfer_ms(size)`` down; an edge hit is free.  A
   ``slow`` fault adds its extra latency at every lookup on the degraded
   node.  With no slow faults the request latency is exactly the sum of
   its per-hop costs — a property the span tags pin
   (``net_hop`` spans carry ``sim_ms``).

**The tier sweep.**  A block is *feed-forward* when the placement is
exactly ``LCE``, no registry, probe or tracer is attached, no node is dead
or slow, and the fault plan is absent or spent — :meth:`NetEngine.run`
checks this per block.  Then each node sees exactly the requests that
missed everywhere below it on their route, and its state depends on
nothing else.  So ``run`` visits the nodes once per block in a
topological order of the uplink DAG (every node after all nodes below it
on any route — not level by level: one node can sit at different depths
on different routes).  Each node replays the requests that reached it,
merged in global order, with one ``policy.replay_columns`` call.  A hit
serves the request; a miss climbs the next link of its own route.  This
is exact, not an approximation.  ``contains`` is pure, so the walk's
lookup followed by ``request`` is one ``request``.  An LCE copy is the
``request`` of a miss.  Every policy owns its RNG, and no policy reads
``req.time``.  The
counters come from the hit masks, with ``copies_placed`` the sum of
depths climbed.  Each request's latency is summed hop by hop in the
walk's operation order.  The two float sums are then added left to right
in request order: not ``sum()``, which is compensated since Python 3.12,
and not ``np.sum``, which sums pairwise.  ``tests/net/
test_engine_reference.py`` pins the sweep to a naive walker with ``==``
for every non-oracle registry policy.

Faults come from the cluster layer's :class:`~repro.cluster.faults.
FaultPlan`, consumed by request offset.  A **killed** node is transparent:
requests pay the hops through it but skip its lookup and never place
copies there; its cache state is discarded on kill and rebuilt cold on
restart.  Every request is always served — worst case from origin — so
the served-error rate of a PoP-kill scenario is 0 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from graphlib import TopologicalSorter
from itertools import islice
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.registry import make_policy
from repro.cluster.faults import FaultPlan
from repro.net.placement import LCE, PlacementStrategy, make_placement
from repro.net.receivers import ZipfReceivers
from repro.net.topology import ORIGIN, Link, Topology
from repro.sim.request import Request

__all__ = ["NetEngine", "NetResult"]

#: Requests per receiver-assignment block in :meth:`NetEngine.run`: large
#: enough that the numpy call is free per request, small enough that a
#: generator trace is never held in memory.
_BLOCK = 1 << 16

#: One resolved uplink chain.  ``hops`` has an entry per cache node, edge
#: first: ``(node, tier, 2 * latency_ms, bits per second, uplink target)``
#: — node *names*, so a policy replaced by a ``kill`` is seen by the next
#: request.  ``below[d]`` is the ``d`` nodes under serving depth ``d``,
#: top -> bottom (what placement is offered when nothing is dead).
_Route = Tuple[tuple, tuple]


@dataclass
class NetResult:
    """Aggregate outcome of one :meth:`NetEngine.run` replay."""

    requests: int = 0
    cache_hits: int = 0
    origin_fetches: int = 0
    copies_placed: int = 0
    errors: int = 0
    latency_ms_sum: float = 0.0
    hop_latency_ms_sum: float = 0.0
    #: per-tier engine-side accounting: every request is counted at each
    #: tier its lookup walk reaches, so ``hits / lookups`` is that tier's
    #: local hit ratio with the same denominators ``repro.tdc`` uses.
    tiers: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: 1 where the request was served from *some* cache (any tier) — the
    #: windowed series the PoP-kill dip metrics are computed from.
    hit_flags: bytearray = field(default_factory=bytearray)

    @property
    def hit_ratio(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_ms_sum / self.requests if self.requests else 0.0

    def tier_miss_ratios(self) -> Dict[str, float]:
        """Local miss ratio per tier (misses over lookups *at* that tier)."""
        out = {}
        for tier, st in sorted(self.tiers.items()):
            lookups = st["lookups"]
            out[tier] = (lookups - st["hits"]) / lookups if lookups else 0.0
        return out

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "hit_ratio": self.hit_ratio,
            "origin_fetches": self.origin_fetches,
            "copies_placed": self.copies_placed,
            "errors": self.errors,
            "mean_latency_ms": self.mean_latency_ms,
            "tier_miss_ratios": self.tier_miss_ratios(),
            "tiers": {t: dict(st) for t, st in sorted(self.tiers.items())},
        }


class NetEngine:
    """Replay traffic over a :class:`Topology` with a placement strategy.

    Parameters
    ----------
    topology:
        The (validated) cache graph; policies are materialised from its
        per-node ``policy`` / ``policy_kwargs`` via the unified registry.
    placement:
        A :class:`PlacementStrategy` instance or a registry name
        (``"LCE"`` / ``"LCD"`` / ``"PROB"``).
    receivers:
        A :class:`ZipfReceivers` population, or ``None`` for a single
        receiver on the first edge.  Receiver ``r`` attaches to edge
        ``edge_nodes[r % n_edges]``.
    fault_plan:
        Optional :class:`FaultPlan` consumed by request offset; unknown
        node names are ignored (the never-raise pin).
    registry:
        Optional :class:`repro.obs.metrics.MetricsRegistry`; per-tier
        lookup/hit/byte counters and the latency histogram land there.
    probe:
        Optional :class:`repro.obs.probe.Probe` for ``net_*`` events.
    tracer:
        Optional :class:`repro.obs.span.Tracer`; when set, every request
        gets a ``request`` root with ``net_hop`` / ``tier_lookup`` /
        ``placement`` children whose ``sim_ms`` tags carry the simulated
        latency model (wall time on spans is meaningless here).
    """

    def __init__(
        self,
        topology: Topology,
        placement: Union[str, PlacementStrategy] = "LCE",
        receivers: Optional[ZipfReceivers] = None,
        fault_plan: Optional[FaultPlan] = None,
        registry=None,
        probe=None,
        tracer=None,
    ):
        topology.validate()
        self.topology = topology
        self.placement = (
            placement
            if isinstance(placement, PlacementStrategy)
            else make_placement(placement)
        )
        self.receivers = receivers
        self.fault_plan = fault_plan
        self.registry = registry
        self.probe = probe
        self.tracer = tracer

        self.policies: Dict[str, object] = {
            name: make_policy(node.policy, node.capacity, **node.policy_kwargs)
            for name, node in topology.nodes.items()
        }
        self.edges: List[str] = topology.edge_nodes
        # Routes are resolved here, once: a node or link added to the
        # topology after this point is not seen by this engine.
        self._routes: Dict[tuple, _Route] = {}
        self._edge_routes = [self._fixed_route(edge) for edge in self.edges]
        # The sweep's node order: every node after every node that links
        # to it, so after all nodes below it on any route.
        below: Dict[str, List[str]] = {name: [] for name in topology.nodes}
        for name in topology.nodes:
            for link in topology.uplinks(name):
                if link.dst != ORIGIN:
                    below[link.dst].append(name)
        self._sweep_order = tuple(TopologicalSorter(below).static_order())
        self._observed = not (registry is None and probe is None and tracer is None)
        self.dead: set = set()
        self.slow_ms: Dict[str, float] = {}
        self.clock = 0
        self.result = NetResult(
            tiers={
                tier: {"lookups": 0, "hits": 0, "hit_bytes": 0, "lookup_bytes": 0}
                for tier in topology.tiers()
            }
        )
        if registry is not None:
            self._c_lookups = {
                t: registry.counter("net_tier_lookups", tier=t)
                for t in topology.tiers()
            }
            self._c_hits = {
                t: registry.counter("net_tier_hits", tier=t) for t in topology.tiers()
            }
            self._c_hit_bytes = {
                t: registry.counter("net_tier_hit_bytes", tier=t)
                for t in topology.tiers()
            }
            self._c_origin = registry.counter("net_origin_fetches")
            self._c_copies = registry.counter("net_copies_placed")
            self._h_latency = registry.histogram("net_request_latency_ms")

    # -- routes ------------------------------------------------------------
    def _route(self, links: Sequence[Link]) -> _Route:
        """The resolved form of one uplink chain (memoised by its nodes)."""
        names = tuple(link.src for link in links)
        route = self._routes.get(names)
        if route is None:
            nodes = self.topology.nodes
            hops = tuple(
                (link.src, nodes[link.src].tier, 2.0 * link.latency_ms,
                 link.gbps * 1e9, link.dst)
                for link in links
            )
            below = tuple(names[:d][::-1] for d in range(len(names) + 1))
            route = self._routes[names] = (hops, below)
        return route

    def _fixed_route(self, edge: str) -> Optional[_Route]:
        """``edge``'s route if no node on its chain has a choice of uplink;
        ``None`` when the chain depends on the key."""
        links = []
        at = edge
        while at != ORIGIN:
            uplinks = self.topology.uplinks(at)
            if len(uplinks) != 1:
                return None
            links.append(uplinks[0])
            at = uplinks[0].dst
        return self._route(links)

    # -- faults ------------------------------------------------------------
    def _apply_faults(self, offset: int) -> None:
        """Consume the plan's actions due at ``offset`` (caller has checked
        there is a plan with actions left)."""
        for act in self.fault_plan.due(offset):
            node = act.node
            if node not in self.policies and node not in self.dead:
                continue  # unknown node: the plan never raises
            if act.kind == "kill":
                self.dead.add(node)
                spec = self.topology.nodes[node]
                # crash semantics: state is gone the moment it dies
                self.policies[node] = make_policy(
                    spec.policy, spec.capacity, **spec.policy_kwargs
                )
                if self.probe is not None:
                    self.probe.emit("net_node_down", node=node, t=offset)
            elif act.kind == "restart":
                self.dead.discard(node)
                if self.probe is not None:
                    self.probe.emit("net_node_up", node=node, t=offset)
            elif act.kind == "slow":
                self.slow_ms[node] = act.extra_latency_s * 1e3
            elif act.kind == "recover":
                self.slow_ms.pop(node, None)

    # -- the per-request walk ---------------------------------------------
    def serve(self, req: Request) -> float:
        """Serve one request; returns its simulated latency in ms."""
        rx = self.receivers
        return self._serve(req, rx.assign(self.clock) if rx is not None else 0)

    def _serve(self, req: Request, receiver: int) -> float:
        """The request body: ``req`` arrives at ``receiver``'s edge."""
        index = self.clock
        self.clock = index + 1
        plan = self.fault_plan
        if plan is not None and not plan.exhausted:
            self._apply_faults(index)
        res = self.result
        res.requests += 1

        key, size = req.key, req.size
        e = receiver % len(self.edges)
        route = self._edge_routes[e]
        if route is None:
            route = self._route(self.topology.path(self.edges[e], key))
        hops, below = route

        # Everything the registry, probe and tracer need sits behind this
        # one flag; an unobserved replay tests it and nothing else.
        observed = self._observed
        registry = probe = root = None
        if observed:
            registry, probe = self.registry, self.probe
            if self.tracer is not None:
                root = self.tracer.start_trace(
                    "request", edge=self.edges[e], receiver=receiver
                )

        dead, slow, policies = self.dead, self.slow_ms, self.policies
        latency = 0.0
        hop_latency = 0.0
        depth = 0  # links climbed to the serving point; len(hops) = origin
        try:
            for name, tier, _, _, _ in hops:
                if not dead or name not in dead:
                    if slow and name in slow:
                        latency += slow[name]
                    st = res.tiers[tier]
                    st["lookups"] += 1
                    st["lookup_bytes"] += size
                    policy = policies[name]
                    hit = policy.contains(key)
                    if observed:
                        if root is not None:
                            span = root.child("tier_lookup", node=name, tier=tier)
                            span.end(sim_ms=slow.get(name, 0.0), hit=hit)
                        if registry is not None:
                            self._c_lookups[tier].inc()
                    if hit:
                        policy.request(req)  # count + promote at the hit node
                        st["hits"] += 1
                        st["hit_bytes"] += size
                        if observed:
                            if registry is not None:
                                self._c_hits[tier].inc()
                                self._c_hit_bytes[tier].inc(size)
                            if probe is not None:
                                probe.emit(
                                    "net_tier_hit",
                                    key=key,
                                    size=size,
                                    node=name,
                                    tier=tier,
                                    t=index,
                                )
                        res.cache_hits += 1
                        res.hit_flags.append(1)
                        break
                depth += 1
            else:
                res.origin_fetches += 1
                res.hit_flags.append(0)
                if observed:
                    if registry is not None:
                        self._c_origin.inc()
                    if probe is not None:
                        probe.emit(
                            "net_origin_fetch",
                            key=key,
                            size=size,
                            edge=self.edges[e],
                            t=index,
                        )

            # latency: up to the serving point and back down, per link, in
            # Link.transfer_ms's operation order (the sums are pinned ==)
            for name, _, rtt_ms, bps, uplink in hops[:depth]:
                cost = rtt_ms + size * 8.0 / bps * 1e3
                hop_latency += cost
                if root is not None:
                    span = root.child("net_hop", src=name, dst=uplink)
                    span.end(sim_ms=cost)
            latency += hop_latency

            # placement: live caches strictly below the serving point,
            # top -> bottom (the response's direction of travel)
            downstream = below[depth]
            if dead and downstream:
                downstream = [n for n in downstream if n not in dead]
            placed = 0
            if downstream:
                for name in self.placement.copy_nodes(downstream, key, size, index):
                    policies[name].request(req)  # node's own admission
                    placed += 1
                res.copies_placed += placed
                if observed:
                    if registry is not None and placed:
                        self._c_copies.inc(placed)
                    if probe is not None:
                        probe.emit(
                            "net_placement",
                            key=key,
                            size=size,
                            strategy=self.placement.name,
                            offered=len(downstream),
                            placed=placed,
                            t=index,
                        )
            if root is not None:
                span = root.child("placement", strategy=self.placement.name)
                span.end(sim_ms=0.0, placed=placed)
        except Exception:
            res.errors += 1
            if root is not None:
                root.end(status="error")
            raise
        res.latency_ms_sum += latency
        res.hop_latency_ms_sum += hop_latency
        if observed:
            if registry is not None:
                self._h_latency.observe(latency)
            if root is not None:
                root.end(sim_ms=latency, status="ok")
        return latency

    # -- replay drivers ----------------------------------------------------
    def run(self, trace) -> NetResult:
        """Replay a ``Trace`` or any iterable of requests (a generator is
        consumed a block at a time, never materialised).  A block the
        engine finds feed-forward is swept tier by tier
        (:meth:`_sweep`); any other is walked request by request."""
        requests = iter(getattr(trace, "requests", trace))
        serve, rx = self._serve, self.receivers
        while block := list(islice(requests, _BLOCK)):
            start = self.clock
            if rx is None:
                who = np.zeros(len(block), dtype=np.int64)
            else:
                who = rx.assign_array(np.arange(start, start + len(block), dtype=np.int64))
            if self._feed_forward():
                self._sweep(block, who)
            else:
                for req, receiver in zip(block, who.tolist()):
                    serve(req, receiver)
        return self.result

    def _feed_forward(self) -> bool:
        """Whether each node's requests are exactly those that missed
        everywhere below it: LCE, nothing observing, every node live and
        at speed, no fault still to come."""
        plan = self.fault_plan
        return (
            type(self.placement) is LCE
            and not self._observed
            and not self.dead
            and not self.slow_ms
            and (plan is None or plan.exhausted)
        )

    def _sweep(self, block: list, receivers: np.ndarray) -> None:
        """Replay a feed-forward block one node at a time (the module
        docstring says why this equals walking it).

        Each node, in :attr:`_sweep_order`, replays the requests that
        reached it — merged across the routes through it, in request
        order — with one ``replay_columns`` call; a hit serves the
        request, a miss climbs the next link of its route.
        """
        n = len(block)
        keys = [req.key for req in block]
        sizes = [req.size for req in block]
        nbytes = np.array(sizes, dtype=np.int64)
        bits = nbytes * 8.0
        edge_of = receivers % len(self.edges)

        # each request's route, as an index into this block's route table
        fixed = self._edge_routes
        if None not in fixed:
            table, rid = fixed, edge_of
        else:
            table, slot, ids = [], {}, []
            edges, path, resolve = self.edges, self.topology.path, self._route
            for key, e in zip(keys, edge_of.tolist()):
                route = fixed[e] or resolve(path(edges[e], key))
                s = slot.get(id(route))
                if s is None:
                    s = slot[id(route)] = len(table)
                    table.append(route)
                ids.append(s)
            rid = np.array(ids, dtype=np.int64)
        order = np.argsort(rid, kind="stable")
        climbing = np.split(order, np.cumsum(np.bincount(rid, minlength=len(table)))[:-1])
        legs: Dict[str, list] = {}  # node -> [(route index, hop)]
        for r, (hops, _) in enumerate(table):
            for hop in hops:
                legs.setdefault(hop[0], []).append((r, hop))

        res, policies = self.result, self.policies
        latency = np.zeros(n)
        copies = 0
        for name in self._sweep_order:
            through = legs.get(name)
            if through is None:
                continue
            if len(through) == 1:
                idx = climbing[through[0][0]]
            else:
                idx = np.sort(np.concatenate([climbing[r] for r, _ in through]))
            if not idx.size:
                continue
            at = idx.tolist()
            out: list = []
            policies[name].replay_columns(
                list(map(keys.__getitem__, at)), list(map(sizes.__getitem__, at)), out
            )
            hit = np.array(out, dtype=bool)
            st = res.tiers[through[0][1][1]]
            seen = nbytes[idx]
            st["lookups"] += idx.size
            st["lookup_bytes"] += int(seen.sum())
            st["hits"] += int(np.count_nonzero(hit))
            st["hit_bytes"] += int(seen[hit].sum())
            miss = ~hit
            for r, (_, _, rtt_ms, bps, _) in through:
                if len(through) == 1:
                    up = idx[miss]
                else:
                    up = climbing[r]
                    up = up[miss[np.searchsorted(idx, up)]]
                # Link.transfer_ms's operation order, hop by hop up the route
                latency[up] += rtt_ms + bits[up] / bps * 1e3
                climbing[r] = up
                copies += up.size  # LCE: a copy at every node climbed past

        fetched = np.concatenate(climbing)  # climbed past every node
        flags = np.ones(n, dtype=np.uint8)
        flags[fetched] = 0
        res.requests += n
        res.cache_hits += n - fetched.size
        res.origin_fetches += fetched.size
        res.copies_placed += copies
        res.hit_flags += flags.tobytes()
        # left to right in request order, as _serve adds them: not sum()
        # (compensated since Python 3.12), not np.sum (pairwise)
        per_request = latency.tolist()
        res.latency_ms_sum = reduce(add, per_request, res.latency_ms_sum)
        res.hop_latency_ms_sum = reduce(add, per_request, res.hop_latency_ms_sum)
        self.clock += n

    def run_bin(self, path, chunk_size: int = 1 << 20) -> NetResult:
        """Stream a ``.bin`` trace through :meth:`run`, one chunk of the
        file in memory at a time."""
        from repro.traces.binfmt import BinTraceReader

        with BinTraceReader(path) as reader:
            return self.run(reader.stream_requests(chunk_size))

    # -- introspection -----------------------------------------------------
    def policy_stats(self, node: str):
        """The live policy object for ``node`` (its own hit/miss counts)."""
        return self.policies[node]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NetEngine({self.topology!r}, placement={self.placement.name}, "
            f"served={self.result.requests})"
        )
