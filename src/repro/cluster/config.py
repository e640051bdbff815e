"""Declarative cluster construction: one config dataclass, one builder.

``ClusterConfig`` is the cluster analogue of the serve/orchestrate config
objects: a flat, JSON-serialisable description of the fleet (node count,
replication, policy name + kwargs, capacity split, origin/retry knobs)
with ``as_dict``/``from_dict`` so a ``BENCH_cluster.json`` manifest can
rebuild the exact cluster that produced it.

:func:`build_cluster` turns the config into a started-but-cold
:class:`~repro.cluster.router.ClusterRouter`: one shared
:class:`~repro.serve.origin.SimulatedOrigin` (cluster-wide origin
accounting), N :class:`~repro.cluster.node.ClusterNode` whose factories
build fresh :class:`~repro.serve.service.CacheService` instances through
the unified policy registry (:func:`repro.cache.registry.resolve_policy`)
— so ``policy="scip"`` works here exactly as it does in ``simulate`` and
``bench serve``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.cache.registry import resolve_policy
from repro.cluster.node import ClusterNode
from repro.cluster.router import ClusterRouter
from repro.obs.metrics import MetricsRegistry
from repro.serve.origin import OriginConfig, RetryPolicy, SimulatedOrigin
from repro.serve.service import CacheService

__all__ = ["ClusterConfig", "build_cluster"]


@dataclass
class ClusterConfig:
    """Everything needed to rebuild a cluster, as plain data.

    Parameters
    ----------
    n_nodes:
        Fleet size; node ids are ``n0 .. n{N-1}``.
    replication:
        R — primary plus R−1 replicas per key.
    policy:
        Registry name (see :func:`repro.cache.registry.available_policies`).
    policy_kwargs:
        Extra keywords for the policy constructor.
    capacity_bytes:
        **Total cluster budget**, split evenly across nodes (and then
        across each node's shards) — so R=1 vs R=2 comparisons hold
        hardware constant, not per-node capacity.
    n_shards:
        Shards per node service.
    queue_depth:
        Per-shard bound on requests held unanswered — decided and waiting
        on an origin fetch; at the bound a request is shed.
    vnodes:
        Virtual nodes per physical node on the ring.
    origin_latency_mean / origin_latency_jitter / origin_concurrency /
    origin_failure_rate:
        Shared-origin knobs (see :class:`OriginConfig`).
    retry_timeout / retry_max_retries:
        Client retry knobs (see :class:`RetryPolicy`).
    seed:
        Seeds origin RNG and per-shard backoff jitter.
    """

    n_nodes: int = 3
    replication: int = 2
    policy: str = "LRU"
    policy_kwargs: Dict = field(default_factory=dict)
    capacity_bytes: int = 3 * 1024 * 1024
    n_shards: int = 1
    queue_depth: int = 4096
    vnodes: int = 64
    origin_latency_mean: float = 0.0
    origin_latency_jitter: float = 0.0
    origin_concurrency: int = 64
    origin_failure_rate: float = 0.0
    retry_timeout: Optional[float] = 0.5
    retry_max_retries: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not 1 <= self.replication <= self.n_nodes:
            raise ValueError(
                f"replication must be in [1, n_nodes={self.n_nodes}], "
                f"got {self.replication}"
            )
        if self.capacity_bytes < self.n_nodes * self.n_shards:
            raise ValueError(
                f"capacity_bytes {self.capacity_bytes} cannot be split over "
                f"{self.n_nodes} nodes x {self.n_shards} shards"
            )
        # Fail fast on unknown policy names (KeyError lists the registry).
        resolve_policy(self.policy)

    @property
    def node_ids(self) -> list:
        return [f"n{i}" for i in range(self.n_nodes)]

    @property
    def per_node_capacity(self) -> int:
        return self.capacity_bytes // self.n_nodes

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ClusterConfig":
        return cls(**doc)


def build_cluster(
    config: ClusterConfig,
    registry: Optional[MetricsRegistry] = None,
    probe=None,
) -> ClusterRouter:
    """Materialise a (cold, unstarted) :class:`ClusterRouter` from config.

    All nodes share one origin — so ``router.origin.stats()`` is the
    cluster-wide origin load — and every node (re)start builds a fresh
    service via the unified policy registry, which is what makes
    kill/restart cycles come back cold.
    """
    factory = resolve_policy(config.policy)
    kwargs = dict(config.policy_kwargs)
    origin = SimulatedOrigin(
        OriginConfig(
            latency_mean=config.origin_latency_mean,
            latency_jitter=config.origin_latency_jitter,
            concurrency=config.origin_concurrency,
            failure_rate=config.origin_failure_rate,
            seed=config.seed,
        )
    )
    retry = RetryPolicy(
        timeout=config.retry_timeout, max_retries=config.retry_max_retries
    )
    per_node = config.per_node_capacity

    def make_service_factory(node_index: int):
        def service_factory() -> CacheService:
            return CacheService(
                lambda cap: factory(cap, **kwargs),
                capacity=per_node,
                n_shards=config.n_shards,
                origin=origin,
                retry=retry,
                queue_depth=config.queue_depth,
                seed=config.seed + node_index,
            )

        return service_factory

    nodes = [
        ClusterNode(node_id, make_service_factory(i))
        for i, node_id in enumerate(config.node_ids)
    ]
    return ClusterRouter(
        nodes,
        replication=config.replication,
        origin=origin,
        retry=retry,
        vnodes=config.vnodes,
        registry=registry,
        probe=probe,
        seed=config.seed,
    )
