"""The cluster front: consistent-hash routing with replication and
graceful failover.

``ClusterRouter.get`` is the cluster's only data-plane entry and it
**never raises for data-plane conditions** — the whole design:

1. The key's owners come from the ring's preference list (primary +
   R−1 successor replicas, Dynamo-style).
2. The request is served by the first *live* owner (**read-one**).  Dead
   owners are skipped and counted; serving at any non-primary, or with
   any dead owner skipped, is a **failover** (obs event + counter), not
   an exception.
3. A miss served at one owner **fills** every other live owner
   (**write-all fill**, via the serve layer's stats-clean fill path) so
   a later failover read finds the object resident — this is what makes
   R=2's hit-ratio dip shallower than R=1's when a node dies.
4. With *no* live owner the request goes **direct to origin**: it is
   served (slowly, uncached) and counted, and only a terminal origin
   failure after retries surfaces as an error string on the outcome.

Node kills wipe cache state (crash semantics — a restart comes back
cold); slow-node degradation adds latency without affecting correctness.
Both are applied through :meth:`ClusterRouter.apply_faults` from a
:class:`~repro.cluster.faults.FaultPlan`, or directly by the operator
methods (:meth:`kill_node`, :meth:`restart_node`, :meth:`set_slow`).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

from repro.cluster.faults import FaultAction, FaultPlan
from repro.cluster.node import ClusterNode
from repro.hashring import HashRing
from repro.obs.metrics import MetricsRegistry
from repro.serve.origin import RetryPolicy, SimulatedOrigin, fetch_with_retry
from repro.sim.request import Request

__all__ = ["ClusterOutcome", "ClusterMetrics", "ClusterRouter"]


class ClusterOutcome:
    """What one ``ClusterRouter.get`` call resolved to.

    Attributes
    ----------
    hit:
        Cache decision at the serving node (``False`` for origin-direct).
    node:
        Serving node id, or ``None`` when the request went direct to
        origin.
    failover:
        At least one dead owner was skipped on the way to whoever served.
    served_from:
        ``"cache"`` (a node served it, hit or miss) or ``"origin"``
        (no live owner — uncached direct fetch).
    shed:
        The serving node's shard was at its unanswered-request bound; the
        request was rejected unserved (backpressure, not failure — no failover is attempted).
    error:
        Terminal origin-fetch error string after all retries, or ``None``.
    """

    __slots__ = ("hit", "node", "failover", "served_from", "shed", "error")

    def __init__(
        self,
        hit: bool,
        node: Optional[str],
        failover: bool = False,
        served_from: str = "cache",
        shed: bool = False,
        error: Optional[str] = None,
    ):
        self.hit = hit
        self.node = node
        self.failover = failover
        self.served_from = served_from
        self.shed = shed
        self.error = error

    @property
    def ok(self) -> bool:
        return not self.shed and self.error is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "".join(
            f
            for f, on in (
                ("H", self.hit),
                ("F", self.failover),
                ("S", self.shed),
            )
            if on
        )
        return (
            f"ClusterOutcome({flags or 'M'}, node={self.node!r}, "
            f"from={self.served_from}, error={self.error!r})"
        )


class ClusterMetrics:
    """Cluster-level instruments plus per-node gauges.

    Node liveness is a labelled gauge (``cluster_node_up{node=...}``) so a
    registry snapshot at any moment reads as a fleet health panel; request
    placement is a labelled counter per serving node.
    """

    def __init__(self, registry: Optional[MetricsRegistry], node_ids: Iterable[str]):
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.requests = r.counter("cluster_requests")
        self.hits = r.counter("cluster_hits")
        self.misses = r.counter("cluster_misses")
        self.failovers = r.counter("cluster_failovers")
        self.origin_direct = r.counter("cluster_origin_direct")
        self.fills = r.counter("cluster_fills")
        self.shed = r.counter("cluster_shed")
        self.errors = r.counter("cluster_errors")
        self.node_downs = r.counter("cluster_node_downs")
        self.node_ups = r.counter("cluster_node_ups")
        self.rebalances = r.counter("cluster_rebalances")
        self._node_up = {
            n: r.gauge("cluster_node_up", node=n) for n in node_ids
        }
        self._node_served = {
            n: r.counter("cluster_node_requests", node=n) for n in node_ids
        }
        self._node_slow = {
            n: r.gauge("cluster_node_slow_s", node=n) for n in node_ids
        }

    def track_node(self, node_id: str) -> None:
        """Create the per-node instruments for a node joining the fleet."""
        r = self.registry
        self._node_up.setdefault(node_id, r.gauge("cluster_node_up", node=node_id))
        self._node_served.setdefault(
            node_id, r.counter("cluster_node_requests", node=node_id)
        )
        self._node_slow.setdefault(
            node_id, r.gauge("cluster_node_slow_s", node=node_id)
        )

    def node_up(self, node_id: str, up: bool) -> None:
        self.track_node(node_id)
        self._node_up[node_id].set(1 if up else 0)

    def node_served(self, node_id: str) -> None:
        self._node_served[node_id].inc()

    def node_slow(self, node_id: str, slow_s: float) -> None:
        self.track_node(node_id)
        self._node_slow[node_id].set(slow_s)

    def snapshot(self) -> dict:
        return self.registry.snapshot()


class ClusterRouter:
    """Replicated consistent-hash front over N :class:`ClusterNode`.

    Parameters
    ----------
    nodes:
        The fleet (ids must be unique; order fixes the default ring).
    replication:
        R — each key has one primary plus R−1 successor replicas; reads
        are served by the first live owner, miss fills go to all of them.
    origin:
        The shared :class:`SimulatedOrigin` used for origin-direct serving
        when every owner is dead (normally the same instance the node
        services fetch through, so origin accounting stays cluster-wide).
    retry:
        Retry policy for origin-direct fetches.
    vnodes:
        Virtual nodes per physical node on the ring.
    registry:
        Metrics registry for the cluster instruments (default private).
    probe:
        Optional obs probe (``failover`` / ``node_down`` / ``node_up`` /
        ``rebalance`` events).
    seed:
        Decorrelates origin-direct retry backoff jitter.
    """

    def __init__(
        self,
        nodes: Iterable[ClusterNode],
        replication: int = 1,
        origin: Optional[SimulatedOrigin] = None,
        retry: Optional[RetryPolicy] = None,
        vnodes: int = 64,
        registry: Optional[MetricsRegistry] = None,
        probe=None,
        seed: int = 0,
    ):
        self.nodes: Dict[str, ClusterNode] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise ValueError(f"duplicate node id {node.node_id!r}")
            self.nodes[node.node_id] = node
        if not self.nodes:
            raise ValueError("cluster needs at least one node")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.replication = int(replication)
        self.ring = HashRing(list(self.nodes), vnodes=vnodes)
        self.origin = origin
        self.retry = retry if retry is not None else RetryPolicy()
        self.metrics = ClusterMetrics(registry, self.nodes)
        self.probe = probe
        self._rng = random.Random(seed)
        self._started = False
        #: Replay clock: requests routed so far (the fault-plan offset).
        self.t = 0

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "ClusterRouter":
        if not self._started:
            for node in self.nodes.values():
                await node.start()
                self.metrics.node_up(node.node_id, True)
            self._started = True
        return self

    async def close(self) -> None:
        if self._started:
            for node in self.nodes.values():
                await node.stop()
                self.metrics.node_up(node.node_id, False)
            self._started = False

    async def __aenter__(self) -> "ClusterRouter":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- fault control plane -----------------------------------------------
    async def kill_node(self, node_id: str) -> None:
        """Crash a node: state wiped, requests fail over (idempotent)."""
        node = self.nodes[node_id]
        if not node.up:
            return
        await node.stop()
        node.kills += 1
        self.metrics.node_up(node_id, False)
        self.metrics.node_downs.inc()
        if self.probe is not None:
            self.probe.emit("node_down", node=node_id, at=self.t)

    async def restart_node(self, node_id: str) -> None:
        """Bring a killed node back — cold (idempotent)."""
        node = self.nodes[node_id]
        if node.up:
            return
        await node.start()
        self.metrics.node_up(node_id, True)
        self.metrics.node_ups.inc()
        if self.probe is not None:
            self.probe.emit("node_up", node=node_id, at=self.t)

    def set_slow(self, node_id: str, extra_latency_s: float) -> None:
        """Degrade a node's data-plane latency (0 restores it)."""
        if extra_latency_s < 0:
            raise ValueError(f"extra_latency_s must be >= 0, got {extra_latency_s}")
        self.nodes[node_id].slow_s = extra_latency_s
        self.metrics.node_slow(node_id, extra_latency_s)

    async def apply_fault(self, action: FaultAction) -> None:
        """Execute one fault action against the fleet."""
        if action.kind == "kill":
            await self.kill_node(action.node)
        elif action.kind == "restart":
            await self.restart_node(action.node)
        elif action.kind == "slow":
            self.set_slow(action.node, action.extra_latency_s)
        else:  # "recover" — FaultAction validated the kind already
            self.set_slow(action.node, 0.0)

    async def apply_faults(self, plan: FaultPlan, offset: Optional[int] = None) -> int:
        """Apply every plan action due at ``offset`` (default: the replay
        clock :attr:`t`).  Returns the number of actions applied."""
        due = plan.due(self.t if offset is None else offset)
        for action in due:
            await self.apply_fault(action)
        return len(due)

    # -- the data plane ----------------------------------------------------
    def owners_for(self, key) -> List[str]:
        """The key's preference list (primary first) at current membership."""
        return self.ring.preference_list(key, self.replication)

    async def get(self, req: Request, span=None) -> ClusterOutcome:
        """Serve one request; never raises for data-plane conditions.

        Dead owners are skipped (failover), a miss fills the other live
        owners, and a fully-dead preference list degrades to an
        origin-direct fetch — every branch lands on a
        :class:`ClusterOutcome`, not an exception.

        ``span`` (optional trace span) gets exactly one ``failover_hop``
        child per failed-over request — the same condition that increments
        the ``cluster_failovers`` counter, so hop-span counts and the
        counter reconcile — plus ``node_serve``/``replica_fill``/
        ``origin_direct`` children for the serve and fill stages.
        """
        if not self._started:
            raise RuntimeError("ClusterRouter.get before start() (use 'async with')")
        m = self.metrics
        m.requests.inc()
        self.t += 1
        owners = self.owners_for(req.key)
        skipped = 0
        for name in owners:
            node = self.nodes[name]
            if not node.up:
                skipped += 1
                continue
            failover = skipped > 0
            hop = None
            parent = span
            if failover:
                m.failovers.inc()
                if span is not None:
                    hop = span.child(
                        "failover_hop",
                        frm=owners[0],
                        to=name,
                        skipped=skipped,
                        failover=True,
                    )
                    parent = hop
                if self.probe is not None:
                    self.probe.emit(
                        "failover", key=req.key, frm=owners[0], to=name, at=self.t
                    )
            nspan = (
                parent.child("node_serve", node=name)
                if parent is not None
                else None
            )
            out = await node.get(req, nspan)
            if nspan is not None:
                nspan.end(
                    "shed" if out.shed else ("error" if out.error else "ok"),
                    hit=out.hit,
                )
            m.node_served(name)
            if out.shed:
                m.shed.inc()
                if hop is not None:
                    hop.end("shed")
                return ClusterOutcome(
                    False, name, failover=failover, shed=True
                )
            if out.error is not None:
                m.errors.inc()
            if out.hit:
                m.hits.inc()
            else:
                m.misses.inc()
                if out.error is None:
                    await self._fill_replicas(req, owners, served_by=name, span=parent)
            if hop is not None:
                hop.end("ok" if out.error is None else "error")
            return ClusterOutcome(
                out.hit, name, failover=failover, error=out.error
            )
        # Every owner is dead: degrade to an uncached origin-direct fetch.
        m.misses.inc()
        m.failovers.inc()
        m.origin_direct.inc()
        hop = (
            span.child(
                "failover_hop",
                frm=owners[0] if owners else None,
                to="origin",
                skipped=skipped,
                failover=True,
            )
            if span is not None
            else None
        )
        if self.probe is not None:
            self.probe.emit(
                "failover", key=req.key, frm=owners[0] if owners else None,
                to="origin", at=self.t,
            )
        if self.origin is None:
            m.errors.inc()
            if hop is not None:
                hop.end("error")
            return ClusterOutcome(
                False, None, failover=True, served_from="origin",
                error="no live owner and no origin configured",
            )
        dspan = hop.child("origin_direct") if hop is not None else None
        outcome = await fetch_with_retry(
            self.origin, req.key, req.size, self.retry, self._rng, span=dspan
        )
        if dspan is not None:
            dspan.end("ok" if outcome.ok else "error", attempts=outcome.attempts)
        if hop is not None:
            hop.end("ok" if outcome.error is None else "error")
        if outcome.error is not None:
            m.errors.inc()
        return ClusterOutcome(
            False, None, failover=True, served_from="origin", error=outcome.error
        )

    async def _fill_replicas(
        self, req: Request, owners: List[str], served_by: str, span=None
    ) -> None:
        """Write-all fill: admit the just-fetched object on the other live
        owners so a failover read finds it resident."""
        for name in owners:
            if name == served_by:
                continue
            node = self.nodes.get(name)
            if node is None or not node.up:
                continue
            fspan = (
                span.child("replica_fill", node=name) if span is not None else None
            )
            filled = await node.fill(req)
            if fspan is not None:
                fspan.end(filled=filled)
            if filled:
                self.metrics.fills.inc()

    # -- introspection -----------------------------------------------------
    @property
    def unhandled_exceptions(self) -> int:
        """Exceptions contained by any node's shards (CI asserts 0)."""
        return sum(
            node.service.unhandled_exceptions
            for node in self.nodes.values()
            if node.up
        )

    def live_nodes(self) -> List[str]:
        return [n for n, node in self.nodes.items() if node.up]

    def health(self) -> dict:
        return {
            "replication": self.replication,
            "nodes": {n: node.health() for n, node in self.nodes.items()},
            "live": self.live_nodes(),
            "ring_size": len(self.ring),
        }

    def stats(self) -> dict:
        m = self.metrics
        requests = m.requests.value
        served = requests - m.shed.value
        return {
            "requests": requests,
            "hits": m.hits.value,
            "hit_ratio": m.hits.value / served if served else 0.0,
            "failovers": m.failovers.value,
            "origin_direct": m.origin_direct.value,
            "fills": m.fills.value,
            "shed": m.shed.value,
            "errors": m.errors.value,
            "node_downs": m.node_downs.value,
            "node_ups": m.node_ups.value,
            "rebalances": m.rebalances.value,
            "unhandled_exceptions": self.unhandled_exceptions,
            "nodes": {n: node.stats() for n, node in self.nodes.items()},
        }
