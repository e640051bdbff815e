"""The concurrent cache service: N key-sharded single-owner policies
behind one async ``get``.

``CacheService`` is the serving-path analogue of :func:`repro.sim.engine.
simulate`: the same policies, the same write-on-miss admission, but driven
by concurrent callers instead of a synchronous replay loop.  Requests are
routed to shards by key hash; each shard owns its policy exclusively and
decides in the caller, with no queue or worker between them (see
:mod:`repro.serve.shard`), misses coalesce through per-shard single-flight
maps, and origin traffic flows through one shared bounded
:class:`~repro.serve.origin.SimulatedOrigin`.

Equivalence anchor: the policy sees requests in the order ``get`` is
called, so with ``n_shards=1`` the hit/miss sequence is bit-identical to
``sim.engine`` on the same trace — ``tests/serve/test_equivalence.py``
pins this.

Capacity is split evenly across shards (a real deployment provisions per
instance); with one shard the service sees the full budget, keeping the
equivalence comparison honest.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cache.base import CachePolicy
from repro.obs.metrics import MetricsRegistry
from repro.serve.origin import OriginConfig, RetryPolicy, SimulatedOrigin
from repro.serve.results import ServeMetrics, ServeOutcome
from repro.serve.shard import CacheShard
from repro.sim.request import Request

__all__ = ["CacheService"]


class CacheService:
    """Asyncio cache service fronting sharded single-owner policies.

    Parameters
    ----------
    policy_factory:
        ``capacity_bytes -> CachePolicy``; called once per shard with the
        shard's slice of the budget.  Fresh instances only — shards must
        not share policy state.
    capacity:
        Total cache budget in bytes, split evenly across shards.
    n_shards:
        Number of key-shards.  Shards partition keys and capacity, not
        CPU: all of them decide on the caller's event loop.
    origin:
        Shared :class:`SimulatedOrigin` (default: a 2 ms origin).
    retry:
        Client-side :class:`RetryPolicy` for origin fetches.
    queue_depth:
        Per-shard bound on requests held unanswered (decided, waiting on
        an origin fetch); at the bound a request is shed before the policy
        sees it (0 = unbounded).
    registry:
        Metrics registry to instrument into (default: a private one);
        pass an :class:`repro.obs.ObsSession`'s registry to fold a serve
        run into an existing observability pipeline.
    probe:
        Optional obs probe for serve events (``fetch``, ``fetch_retry``,
        ``fetch_error``, ``shed``).
    seed:
        Decorrelates per-shard backoff jitter.
    """

    def __init__(
        self,
        policy_factory: Callable[[int], CachePolicy],
        capacity: int,
        n_shards: int = 4,
        origin: Optional[SimulatedOrigin] = None,
        retry: Optional[RetryPolicy] = None,
        queue_depth: int = 1024,
        registry: Optional[MetricsRegistry] = None,
        probe=None,
        seed: int = 0,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if capacity < n_shards:
            raise ValueError(
                f"capacity {capacity} cannot be split over {n_shards} shards"
            )
        self.capacity = int(capacity)
        self.origin = origin if origin is not None else SimulatedOrigin(OriginConfig())
        self.retry = retry if retry is not None else RetryPolicy()
        self.metrics = ServeMetrics(registry)
        per_shard = self.capacity // n_shards
        self.shards: List[CacheShard] = [
            CacheShard(
                i,
                policy_factory(per_shard),
                self.origin,
                self.retry,
                self.metrics,
                queue_depth=queue_depth,
                probe=probe,
                seed=seed,
            )
            for i in range(n_shards)
        ]
        self._n = n_shards
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "CacheService":
        self._started = True
        return self

    async def close(self) -> None:
        """Settle every open fetch generation on every shard."""
        if self._started:
            for shard in self.shards:
                await shard.close()
            self._started = False

    async def __aenter__(self) -> "CacheService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- live policy swap --------------------------------------------------
    async def swap_policy(
        self, policy_factory: Callable[[int], CachePolicy], span=None
    ) -> None:
        """Hot-swap every shard's policy without stopping the service.

        The swap is synchronous — it runs between complete cache decisions
        and never suspends — so no policy is ever touched mid-decision and
        in-flight coalesced fetches settle normally against the shard's
        single-flight map.  Resident sets are migrated when both old and
        new policies are queue-structured (see
        :meth:`repro.serve.shard.CacheShard.swap`).
        """
        if not self._started:
            raise RuntimeError("CacheService.swap_policy before start()")
        for shard in self.shards:
            shard.swap(policy_factory, span)

    # -- replication fill --------------------------------------------------
    async def fill(self, req: Request) -> bool:
        """Admit one object's metadata without serving a request.

        The cluster layer's write-all replication hook: after a miss is
        served at one node, the other replicas are *filled* so a later
        failover read finds the object resident.  Runs at once on the
        owning shard (never shed, never suspends); returns ``True`` if the
        object was admitted, ``False`` if it was already resident or larger
        than the shard.  No hit/miss is recorded — a fill is not traffic.
        """
        if not self._started:
            raise RuntimeError("CacheService.fill before start() (use 'async with')")
        return self.shards[hash(req.key) % self._n].fill(req)

    # -- health ------------------------------------------------------------
    def health(self) -> dict:
        """Cheap liveness/pressure snapshot (the cluster's node gauge feed).

        Unlike :meth:`stats` this touches no policy internals, so it is
        safe to poll from outside the event loop's request flow.
        """
        return {
            "started": self._started,
            "n_shards": self._n,
            "queue_depths": [s.unanswered for s in self.shards],
            "shed": sum(s.shed_count for s in self.shards),
            "unhandled_exceptions": self.unhandled_exceptions,
        }

    def resident_entries(self):
        """Yield ``(key, size)`` for every resident object across shards.

        Walks each shard's policy synchronously through the duck-typed
        ``export_residents`` protocol (no await points, so the
        single-threaded event loop cannot observe a policy mid-decision).
        Queue policies export LRU → MRU; composite tenancy partitions
        export every tenant's residents; policies without a resident
        structure contribute nothing — warm handoff is best-effort by
        design.  Used by the cluster
        :class:`~repro.cluster.rebalance.Rebalancer` for warm handoffs.
        """
        for shard in self.shards:
            yield from shard.policy.export_residents()

    # -- tenant quotas -----------------------------------------------------
    async def set_tenant_quotas(self, quotas: dict) -> bool:
        """Apply per-tenant byte quotas across every shard.

        ``quotas`` maps tenant id → total bytes for that tenant across the
        whole service; each shard receives its even slice (mirroring how
        ``capacity`` is split at construction).  The resize is synchronous,
        so quota shrink evictions fall between complete cache decisions.
        Returns ``True`` iff every shard's policy supports quotas.
        """
        if not self._started:
            raise RuntimeError("CacheService.set_tenant_quotas before start()")
        per_shard = {t: max(q // self._n, 1) for t, q in quotas.items()}
        # a list, not a generator: every shard is resized even if one refuses
        return all([shard.set_quotas(dict(per_shard)) for shard in self.shards])

    # -- the request API ---------------------------------------------------
    def shard_for(self, key) -> CacheShard:
        return self.shards[hash(key) % self._n]

    async def get(self, req: Request, span=None) -> ServeOutcome:
        """Serve one request: route to its shard, decide, return the outcome.

        The cache decision runs here, in the caller, before the first
        suspension; a hit (or a shed) returns without yielding to the
        event loop, a miss leader awaits the origin fetch in this task and
        a follower awaits the leader's generation.

        Never raises for data-plane conditions — shedding and terminal
        origin failures come back as fields on the outcome, so one bad key
        can't unwind a caller driving thousands of concurrent gets.

        ``span`` is the request's trace span (see :mod:`repro.obs.span`);
        ``None`` — the default — keeps the path trace-free at the cost of
        one branch per hook.
        """
        if not self._started:
            raise RuntimeError("CacheService.get before start() (use 'async with')")
        m = self.metrics
        m.requests.inc()
        shard = self.shards[hash(req.key) % self._n]
        m.queue_depth.observe(shard.unanswered)
        return await shard.get(req, span)

    # -- introspection -----------------------------------------------------
    @property
    def unhandled_exceptions(self) -> int:
        """Count of exceptions contained in a decision or a fetch (should
        be zero; CI asserts it)."""
        return self.metrics.unhandled.value

    def cache_stats(self) -> dict:
        """Aggregate policy counters across shards (engine-comparable)."""
        hits = misses = bytes_hit = bytes_missed = evictions = bypasses = 0
        resident = used = 0
        for shard in self.shards:
            st = shard.policy.stats
            hits += st.hits
            misses += st.misses
            bytes_hit += st.bytes_hit
            bytes_missed += st.bytes_missed
            evictions += st.evictions
            bypasses += st.bypasses
            used += shard.policy.used
            try:
                resident += len(shard.policy)
            except (NotImplementedError, TypeError):
                pass
        requests = hits + misses
        total_bytes = bytes_hit + bytes_missed
        return {
            "requests": requests,
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / requests if requests else 0.0,
            "miss_ratio": misses / requests if requests else 0.0,
            "byte_miss_ratio": bytes_missed / total_bytes if total_bytes else 0.0,
            "evictions": evictions,
            "bypasses": bypasses,
            "resident_objects": resident,
            "used_bytes": used,
            "capacity_bytes": self.capacity,
        }

    def flight_stats(self) -> dict:
        """Single-flight accounting summed across shards."""
        return {
            "generations": sum(s.flight.generations for s in self.shards),
            "coalesced": sum(s.flight.coalesced for s in self.shards),
            "open": sum(len(s.flight) for s in self.shards),
        }

    def stats(self) -> dict:
        return {
            "cache": self.cache_stats(),
            "flight": self.flight_stats(),
            "origin": self.origin.stats(),
            "shed": sum(s.shed_count for s in self.shards),
            "unhandled_exceptions": self.unhandled_exceptions,
            "shards": [s.stats() for s in self.shards],
        }
