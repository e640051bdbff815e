"""TDC cluster topology — Figure 2's CDN acceleration module.

Requests flow **user → OC layer → DC layer → COS (origin)**:

* the OC (outside cache) layer sits near users; each request is routed to
  one OC node by key hash;
* an OC miss falls through to the DC (data-center) layer, again key-hashed;
* a DC miss is a **back-to-origin** fetch from COS, the expensive path the
  monitoring system tracks.

Both layers admit the object on the way back (write-on-miss), as TDC does.
The cluster records every request in a :class:`~repro.tdc.monitor.Monitor`
with latencies from :class:`~repro.tdc.latency.LatencyModel`.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.cache.base import CachePolicy
from repro.sim.request import Request, Trace
from repro.tdc.latency import LatencyModel
from repro.tdc.monitor import Monitor
from repro.tdc.node import StorageNode

__all__ = ["TDCCluster"]


class TDCCluster:
    """Two-layer CDN cache cluster with an origin behind it.

    Parameters
    ----------
    oc_nodes, dc_nodes:
        Node counts per layer.
    oc_capacity, dc_capacity:
        Per-node capacities in bytes.
    policy_factory:
        ``f(capacity) -> CachePolicy`` used for every node (swap later per
        layer with :meth:`deploy_policy`).
    use_hashring:
        Route by consistent hashing (:mod:`repro.hashring`) instead of
        ``hash % n`` — what a production fleet does so that node changes
        reshuffle only ~1/n of the keyspace.
    """

    def __init__(
        self,
        oc_nodes: int,
        dc_nodes: int,
        oc_capacity: int,
        dc_capacity: int,
        policy_factory: Callable[[int], CachePolicy],
        latency: LatencyModel | None = None,
        monitor: Monitor | None = None,
        use_hashring: bool = False,
    ):
        if oc_nodes < 1 or dc_nodes < 1:
            raise ValueError("need at least one node per layer")
        self.oc: List[StorageNode] = [
            StorageNode(f"oc{i}", policy_factory(oc_capacity)) for i in range(oc_nodes)
        ]
        self.dc: List[StorageNode] = [
            StorageNode(f"dc{i}", policy_factory(dc_capacity)) for i in range(dc_nodes)
        ]
        self.latency = latency or LatencyModel()
        self.monitor = monitor or Monitor()
        self.origin_fetches = 0
        self.origin_bytes = 0
        if use_hashring:
            from repro.hashring import HashRing

            self._oc_ring = HashRing([n.name for n in self.oc])
            self._dc_ring = HashRing([n.name for n in self.dc])
            self._by_name = {n.name: n for n in self.oc + self.dc}
        else:
            self._oc_ring = self._dc_ring = None

    # -- routing ------------------------------------------------------------------
    def _route(self, nodes: Sequence[StorageNode], key: int) -> StorageNode:
        if self._oc_ring is not None:
            ring = self._oc_ring if nodes is self.oc else self._dc_ring
            return self._by_name[ring.route(key)]
        return nodes[hash(key) % len(nodes)]

    def serve(self, req: Request) -> float:
        """Serve one request end-to-end; returns user-visible latency (ms)."""
        oc = self._route(self.oc, req.key)
        if oc.get(req):
            lat = self.latency.oc_hit()
            self.monitor.record(False, req.size, lat)
            return lat
        dc = self._route(self.dc, req.key)
        if dc.get(req):
            lat = self.latency.dc_hit()
            self.monitor.record(False, req.size, lat)
            return lat
        # Back to origin.
        self.origin_fetches += 1
        self.origin_bytes += req.size
        lat = self.latency.origin_fetch(req.size)
        self.monitor.record(True, req.size, lat)
        return lat

    def run(self, trace: Trace) -> None:
        """Replay a whole trace through the cluster."""
        for req in trace:
            self.serve(req)
        self.monitor.flush()

    # -- deployment -----------------------------------------------------------------
    def deploy_policy(
        self, factory: Callable[[int], CachePolicy], layer: str = "both"
    ) -> None:
        """Roll a new policy onto a layer mid-run (the §5 SCIP deployment)."""
        if layer not in ("oc", "dc", "both"):
            raise ValueError(f"layer must be 'oc', 'dc' or 'both', got {layer!r}")
        targets: List[StorageNode] = []
        if layer in ("oc", "both"):
            targets += self.oc
        if layer in ("dc", "both"):
            targets += self.dc
        for node in targets:
            node.swap_policy(factory)

    # -- introspection ----------------------------------------------------------------
    def total_inode_bytes(self) -> int:
        return sum(n.inode_bytes() for n in self.oc + self.dc)

    def layer_miss_ratios(self) -> dict:
        def ratio(nodes: Sequence[StorageNode]) -> float:
            hits = sum(n.policy.stats.hits for n in nodes)
            total = sum(n.policy.stats.requests for n in nodes)
            return 1.0 - hits / total if total else 0.0

        return {"oc": ratio(self.oc), "dc": ratio(self.dc)}
