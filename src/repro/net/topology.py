"""Cache-network topologies: named cache nodes, weighted links, origin.

A :class:`Topology` is the static description of a CDN's cache graph —
which PoPs exist, how big each cache is and which policy it runs (via the
unified :mod:`repro.cache.registry`), and which directed links connect
them on the way to the origin.  It is pure data: the
:class:`~repro.net.engine.NetEngine` materialises policies and replays
traffic; the topology only answers *structure* questions (validation,
routing paths, tier labels) and round-trips through ``as_dict`` /
``from_dict`` so a ``BENCH_net.json`` manifest can rebuild the exact
graph that produced it.

Structure rules (enforced by :meth:`Topology.validate`, run on freeze):

* the graph of cache nodes plus the implicit ``origin`` sink is a DAG —
  a routing loop would mean a request that never terminates;
* every cache node reaches ``origin`` along uplinks — a stranded node
  could neither fetch nor be filled;
* ``origin`` has no uplinks (it is the sink) and at least one node feeds
  into it.

Nodes may have **multiple** uplinks (fat-tree aggregation); routing picks
one deterministic next hop per ``(node, key)`` with a splitmix64 hash, so
the same key always takes the same path from the same edge — cache
affinity, exactly like consistent-hash request routing in a real fleet.

Builders:

* :func:`tree_topology` — a balanced edge→…→root tree (the classic
  3-tier CDN is ``branching=(4, 2)``: 8 edges, 2 regionals, 1 root);
* :func:`fat_tree_topology` — every node of one tier uplinks to *every*
  node of the next (path diversity, per-key spread);
* :meth:`Topology.add_node` / :meth:`Topology.add_link` — arbitrary DAGs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.registry import resolve_policy
from repro.hashing import mix64

__all__ = [
    "ORIGIN",
    "Link",
    "NetNode",
    "Topology",
    "tree_topology",
    "fat_tree_topology",
]

#: Reserved name of the implicit origin sink; not a cache node.
ORIGIN = "origin"


@dataclass(frozen=True)
class NetNode:
    """One cache PoP: a capacity, a policy name, and a tier label.

    ``tier`` groups nodes for accounting (``edge`` / ``mid1`` / ``root``
    from the builders; anything the caller likes on hand-built graphs) —
    the engine reports hit ratios per tier, not per node, because that is
    the unit the paper's multi-tier question is posed at.
    """

    name: str
    capacity: int
    policy: str = "LRU"
    policy_kwargs: dict = field(default_factory=dict)
    tier: str = "edge"

    def __post_init__(self) -> None:
        if self.name == ORIGIN:
            raise ValueError(f"{ORIGIN!r} is reserved for the origin sink")
        if self.capacity <= 0:
            raise ValueError(f"node {self.name!r}: capacity must be > 0")
        # Fail fast on unknown policy names (KeyError lists the registry).
        resolve_policy(self.policy)

    def as_dict(self) -> dict:
        doc = {
            "name": self.name,
            "capacity": self.capacity,
            "policy": self.policy,
            "tier": self.tier,
        }
        if self.policy_kwargs:
            doc["policy_kwargs"] = dict(self.policy_kwargs)
        return doc


@dataclass(frozen=True)
class Link:
    """A directed uplink ``src -> dst`` with propagation latency and
    bandwidth.  A hop over the link costs ``latency_ms`` each way plus
    ``size / bandwidth`` transfer time on the response leg."""

    src: str
    dst: str
    latency_ms: float = 1.0
    gbps: float = 10.0

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError(f"link {self.src}->{self.dst}: latency_ms must be >= 0")
        if self.gbps <= 0:
            raise ValueError(f"link {self.src}->{self.dst}: gbps must be > 0")

    def transfer_ms(self, size: int) -> float:
        """Response transfer time for ``size`` bytes, in milliseconds."""
        return size * 8.0 / (self.gbps * 1e9) * 1e3

    def as_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "latency_ms": self.latency_ms,
            "gbps": self.gbps,
        }


class Topology:
    """A DAG of cache nodes draining into the implicit ``origin`` sink.

    Build with :meth:`add_node` / :meth:`add_link` (or the builders),
    then call :meth:`validate` — the engine does so on construction, so a
    cyclic or stranded graph fails before any traffic flows.
    """

    def __init__(self, seed: int = 0):
        self.nodes: Dict[str, NetNode] = {}
        self._uplinks: Dict[str, List[Link]] = {}
        self.seed = int(seed)
        self._salt = mix64(self.seed ^ 0x6E65745F746F706F)  # "net_topo"
        # Per-node routing salt — crc32, NOT builtin hash(), which is
        # process-salted on strings and would re-route keys between runs.
        self._node_salt: Dict[str, int] = {}

    # -- construction ------------------------------------------------------
    def add_node(
        self,
        name: str,
        capacity: int,
        policy: str = "LRU",
        policy_kwargs: Optional[dict] = None,
        tier: str = "edge",
    ) -> "Topology":
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        self.nodes[name] = NetNode(
            name, int(capacity), policy, dict(policy_kwargs or {}), tier
        )
        self._uplinks.setdefault(name, [])
        self._node_salt[name] = mix64(zlib.crc32(name.encode()) ^ self._salt)
        return self

    def add_link(
        self, src: str, dst: str, latency_ms: float = 1.0, gbps: float = 10.0
    ) -> "Topology":
        if src not in self.nodes:
            raise ValueError(f"link source {src!r} is not a node")
        if src == dst:
            raise ValueError(f"self-link on {src!r}")
        if dst != ORIGIN and dst not in self.nodes:
            raise ValueError(f"link target {dst!r} is neither a node nor {ORIGIN!r}")
        if any(link.dst == dst for link in self._uplinks[src]):
            raise ValueError(f"duplicate link {src!r} -> {dst!r}")
        self._uplinks[src].append(Link(src, dst, float(latency_ms), float(gbps)))
        return self

    # -- structure queries -------------------------------------------------
    def uplinks(self, name: str) -> Tuple[Link, ...]:
        return tuple(self._uplinks.get(name, ()))

    @property
    def edge_nodes(self) -> List[str]:
        """Nodes nothing links *to* — where receivers attach (sorted)."""
        targets = {
            link.dst for links in self._uplinks.values() for link in links
        }
        return sorted(name for name in self.nodes if name not in targets)

    def tiers(self) -> Dict[str, List[str]]:
        """``{tier: [node names]}`` in sorted order."""
        out: Dict[str, List[str]] = {}
        for name in sorted(self.nodes):
            out.setdefault(self.nodes[name].tier, []).append(name)
        return out

    def total_capacity(self) -> int:
        return sum(node.capacity for node in self.nodes.values())

    def validate(self) -> None:
        """Raise ``ValueError`` unless the graph is a DAG draining into
        ``origin`` with every cache node on some path to it."""
        if not self.nodes:
            raise ValueError("topology has no cache nodes")
        # DFS from every node: cycle detection + origin reachability in one
        # pass (the graph is small — PoP counts, not request counts).
        reaches: Dict[str, bool] = {ORIGIN: True}
        state: Dict[str, int] = {}  # 1 = on stack, 2 = done

        def visit(name: str) -> bool:
            if name == ORIGIN:
                return True
            mark = state.get(name)
            if mark == 1:
                raise ValueError(f"routing cycle through {name!r}")
            if mark == 2:
                return reaches[name]
            state[name] = 1
            ok = False
            for link in self._uplinks.get(name, ()):
                if visit(link.dst):
                    ok = True
            state[name] = 2
            reaches[name] = ok
            return ok

        for name in self.nodes:
            if not visit(name):
                raise ValueError(f"node {name!r} has no path to {ORIGIN!r}")
        if not self.edge_nodes:
            raise ValueError("every node is linked to; no edge to attach receivers")

    # -- routing -----------------------------------------------------------
    def next_hop(self, name: str, key: int) -> Link:
        """The deterministic uplink a ``key`` takes out of ``name``.

        Single uplink: that link.  Multiple (fat-tree): a splitmix64 hash
        of ``(node, key)`` picks one, so a key's route is stable across
        the whole replay — cache affinity without shared state.
        """
        links = self._uplinks[name]
        if len(links) == 1:
            return links[0]
        h = mix64(key ^ self._node_salt[name])
        return links[h % len(links)]

    def path(self, edge: str, key: int) -> List[Link]:
        """Links from ``edge`` up to ``origin`` for ``key``, in order.

        The node sequence is ``[edge] + [l.dst for l in path]`` — the last
        hop always lands on ``origin``.  Validation guarantees termination;
        the walk still bounds itself at the node count as a belt-and-braces
        guard against post-validate mutation.
        """
        if edge not in self.nodes:
            raise ValueError(f"unknown edge node {edge!r}")
        hops: List[Link] = []
        at = edge
        for _ in range(len(self.nodes) + 1):
            if at == ORIGIN:
                return hops
            link = self.next_hop(at, key)
            hops.append(link)
            at = link.dst
        raise ValueError(f"path from {edge!r} exceeded node count (cycle?)")

    # -- (de)serialisation -------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "nodes": [self.nodes[name].as_dict() for name in sorted(self.nodes)],
            "links": [
                link.as_dict()
                for name in sorted(self._uplinks)
                for link in self._uplinks[name]
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Topology":
        topo = cls(seed=doc.get("seed", 0))
        for n in doc["nodes"]:
            topo.add_node(
                n["name"],
                n["capacity"],
                n.get("policy", "LRU"),
                n.get("policy_kwargs"),
                n.get("tier", "edge"),
            )
        for link in doc["links"]:
            topo.add_link(
                link["src"], link["dst"], link["latency_ms"], link["gbps"]
            )
        topo.validate()
        return topo

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        n_links = sum(len(v) for v in self._uplinks.values())
        return f"Topology({len(self.nodes)} nodes, {n_links} links)"


#: Default per-tier link latencies for the builders, edge-side first —
#: approximate public CDN numbers: edge->regional ~8 ms, regional->root
#: ~20 ms, last tier -> origin ~60 ms (the origin link is always the
#: final entry, reused if the tree is deeper than the table).
TIER_LATENCY_MS = (8.0, 20.0, 60.0)


def _tier_name(level: int, depth: int) -> str:
    if level == 0:
        return "edge"
    if level == depth - 1:
        return "root"
    return f"mid{level}"


def _build_tiers(
    branching: Sequence[int],
    capacities: Sequence[int],
    policies: Sequence[str],
    latencies: Optional[Sequence[float]],
    seed: int,
) -> Tuple[Topology, List[List[str]], List[float]]:
    """Shared node layout for the tree / fat-tree builders.

    ``branching[i]`` is the fan-in from tier ``i`` to tier ``i+1``; the
    top tier has one node per trailing product, bottoming out at 1 root.
    ``capacities`` / ``policies`` are per-tier (edge first).
    """
    depth = len(branching) + 1
    if len(capacities) != depth:
        raise ValueError(
            f"need {depth} per-tier capacities for branching {tuple(branching)}, "
            f"got {len(capacities)}"
        )
    if len(policies) != depth:
        raise ValueError(
            f"need {depth} per-tier policies for branching {tuple(branching)}, "
            f"got {len(policies)}"
        )
    lats = list(latencies) if latencies is not None else list(TIER_LATENCY_MS)
    while len(lats) < depth:
        lats.append(lats[-1])
    counts: List[int] = []
    n = 1
    for b in reversed(branching):
        n *= b
    for level in range(depth):
        counts.append(n)
        if level < len(branching):
            if branching[level] < 1:
                raise ValueError(f"branching factors must be >= 1, got {branching}")
            n //= branching[level]
    topo = Topology(seed=seed)
    names: List[List[str]] = []
    for level, count in enumerate(counts):
        tier = _tier_name(level, depth)
        level_names = [f"{tier}{i}" for i in range(count)]
        for name in level_names:
            topo.add_node(
                name, capacities[level], policies[level], tier=tier
            )
        names.append(level_names)
    return topo, names, lats


def tree_topology(
    branching: Sequence[int] = (4, 2),
    capacities: Sequence[int] = (1 << 20, 2 << 20, 4 << 20),
    policies: Sequence[str] = ("LRU", "LRU", "LRU"),
    latencies_ms: Optional[Sequence[float]] = None,
    origin_ms: float = 60.0,
    gbps: float = 10.0,
    seed: int = 0,
) -> Topology:
    """A balanced tree: ``branching=(4, 2)`` gives 8 edges -> 2 mids -> 1
    root -> origin.  Each child uplinks to exactly one parent (children
    are dealt to parents in order)."""
    topo, names, lats = _build_tiers(
        branching, capacities, policies, latencies_ms, seed
    )
    for level, b in enumerate(branching):
        children, parents = names[level], names[level + 1]
        for i, child in enumerate(children):
            topo.add_link(child, parents[i // b], lats[level], gbps)
    for top in names[-1]:
        topo.add_link(top, ORIGIN, origin_ms, gbps)
    topo.validate()
    return topo


def fat_tree_topology(
    branching: Sequence[int] = (4, 2),
    capacities: Sequence[int] = (1 << 20, 2 << 20, 4 << 20),
    policies: Sequence[str] = ("LRU", "LRU", "LRU"),
    latencies_ms: Optional[Sequence[float]] = None,
    origin_ms: float = 60.0,
    gbps: float = 10.0,
    seed: int = 0,
) -> Topology:
    """Same tiers as :func:`tree_topology`, but every node uplinks to
    *every* node of the next tier — per-key hashing then spreads one
    edge's keyspace across all parents (path diversity)."""
    topo, names, lats = _build_tiers(
        branching, capacities, policies, latencies_ms, seed
    )
    for level in range(len(branching)):
        for child in names[level]:
            for parent in names[level + 1]:
                topo.add_link(child, parent, lats[level], gbps)
    for top in names[-1]:
        topo.add_link(top, ORIGIN, origin_ms, gbps)
    topo.validate()
    return topo
