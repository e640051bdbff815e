"""``repro.cluster`` — a replicated multi-node cache cluster with failure
injection.

PR 3/4 built a single-process sharded :class:`~repro.serve.service.
CacheService` with live policy swaps; a real CDN edge is a *network* of
such caches, where node loss, replication and rebalancing dominate
behaviour.  This package grows the serving layer outward:

* :class:`~repro.cluster.node.ClusterNode` — one cache node: a cold-
  startable :class:`CacheService` (its own shards, policies and metrics)
  plus liveness and slow-node degradation state;
* :class:`~repro.cluster.router.ClusterRouter` — the client-facing front:
  routes keys over a :class:`~repro.hashring.HashRing` preference
  list with replication factor R (read-one / write-all fill), failing
  over dead owners to replicas or the origin instead of raising;
* :class:`~repro.cluster.faults.FaultPlan` — scripted node kills,
  restarts and slow-node latency degradation at request offsets;
* :class:`~repro.cluster.rebalance.Rebalancer` — ring membership changes
  (cold replacement nodes, bounded ~2/n key reshuffle, optional warm
  handoff of resident metadata);
* :mod:`~repro.cluster.bench` — ``repro bench cluster``: R=1 vs R=2 under
  a kill/recover scenario, written to a schema-versioned
  ``BENCH_cluster.json`` with an embedded reproducibility manifest.

Failure semantics: data-plane trouble (dead nodes, terminal origin
errors, shedding) comes back on the :class:`~repro.cluster.router.
ClusterOutcome` and in obs events (``failover`` / ``node_down`` /
``node_up`` / ``rebalance``) — ``ClusterRouter.get`` never raises for it.
"""

from repro.cluster.config import ClusterConfig, build_cluster
from repro.cluster.faults import FaultAction, FaultPlan
from repro.cluster.node import ClusterNode
from repro.cluster.rebalance import Rebalancer
from repro.cluster.router import ClusterMetrics, ClusterOutcome, ClusterRouter

__all__ = [
    "ClusterConfig",
    "build_cluster",
    "FaultAction",
    "FaultPlan",
    "ClusterNode",
    "Rebalancer",
    "ClusterMetrics",
    "ClusterOutcome",
    "ClusterRouter",
]
