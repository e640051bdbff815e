"""Hard per-tenant capacity partitioning inside one policy slot.

:class:`TenantPartitionedCache` is a composite :class:`~repro.cache.base.
CachePolicy`: one inner policy instance per tenant, each sized to that
tenant's byte quota.  Requests route to their tenant's inner cache, so the
two quota invariants the tests pin hold **by construction**:

* *isolation* — admission to a full tenant evicts only that tenant's own
  bytes; a tenant under quota never loses residents to a neighbour;
* *scoped victim selection* — shrinking a quota (:meth:`set_quotas`)
  evicts from the over-quota tenant alone, via its inner policy's own
  victim-selection hook (LRU end for queue policies).

Routing is **by key namespace**: the multi-tenant traces place tenant
``t``'s keys in ``[t · TENANT_STRIDE, (t+1) · TENANT_STRIDE)``, so
``key // TENANT_STRIDE`` recovers the owner on every path — live
requests, replication fills, warm-handoff imports — including the ones
that only carry ``(key, size)`` pairs and would lose a request-attached
tag.  ``req.tenant`` is carried for observability; the key decides.

The composite plays the whole duck-typed policy protocol: ``request``,
``contains``, ``remove``, ``export_residents`` / ``import_resident``
(live swap + warm handoff migrate every tenant's residents), ``admit``
(replication fills land in the owner's partition), and
aggregates ``stats`` / ``used`` across inners, so it drops into a
:class:`~repro.serve.shard.CacheShard` or :class:`~repro.tdc.node.
StorageNode` like any single-tenant policy.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cache.base import CachePolicy, CacheStats
from repro.sim.request import Request
from repro.traces.drift import TENANT_STRIDE

__all__ = ["TenantPartitionedCache"]


def _default_inner(capacity: int) -> CachePolicy:
    from repro.cache.lru import LRUCache

    return LRUCache(capacity)


class TenantPartitionedCache(CachePolicy):
    """One cache slot, K tenant partitions, per-tenant byte quotas.

    Parameters
    ----------
    capacity:
        Total byte budget across all tenants.  Quotas must fit inside it.
    n_tenants:
        Number of tenants (ids ``0 .. n_tenants-1``).
    inner_factory:
        ``quota_bytes -> CachePolicy`` building each tenant's partition
        (default LRU).  Inner policies should support ``_make_room`` for
        quota-shrink eviction — every queue-structured registry policy
        does.
    quotas:
        Optional initial ``{tenant: bytes}`` split (default: equal).
    """

    name = "TenantPartitioned"

    def __init__(
        self,
        capacity: int,
        n_tenants: int = 2,
        inner_factory: Optional[Callable[[int], CachePolicy]] = None,
        quotas: Optional[Dict[int, int]] = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if n_tenants < 1:
            raise ValueError(f"n_tenants must be >= 1, got {n_tenants}")
        if capacity < n_tenants:
            raise ValueError(
                f"capacity {capacity} cannot be split over {n_tenants} tenants"
            )
        # Deliberately not calling CachePolicy.__init__: the composite's
        # ``used`` is a property over the inners, not a plain attribute.
        self.capacity = int(capacity)
        self.clock = 0
        self.n_tenants = int(n_tenants)
        factory = inner_factory if inner_factory is not None else _default_inner
        self._factory = factory
        if quotas is None:
            quotas = {t: self.capacity // n_tenants for t in range(n_tenants)}
        self._validate_quotas(quotas)
        self.inners: Dict[int, CachePolicy] = {
            t: factory(max(int(quotas[t]), 1)) for t in range(n_tenants)
        }
        self.quota_evictions = 0
        self.quota_evicted_bytes = 0

    # -- routing ------------------------------------------------------------
    def tenant_of(self, key) -> int:
        """Owning tenant of ``key`` (0 for keys outside any tenant's
        namespace — sentinel/probe keys land in tenant 0's partition)."""
        if isinstance(key, int):
            t = key // TENANT_STRIDE
            if 0 <= t < self.n_tenants:
                return t
        return 0

    def _validate_quotas(self, quotas: Dict[int, int]) -> None:
        unknown = set(quotas) - set(range(self.n_tenants))
        if unknown:
            raise ValueError(f"unknown tenants in quotas: {sorted(unknown)}")
        if len(quotas) != self.n_tenants:
            missing = set(range(self.n_tenants)) - set(quotas)
            raise ValueError(f"quotas missing tenants: {sorted(missing)}")
        total = sum(max(int(q), 1) for q in quotas.values())
        if total > self.capacity:
            raise ValueError(
                f"quotas sum to {total} > capacity {self.capacity}"
            )

    # -- CachePolicy surface -------------------------------------------------
    def request(self, req: Request) -> bool:
        """Route one request to its tenant's partition."""
        self.clock += 1
        return self.inners[self.tenant_of(req.key)].request(req)

    def _lookup(self, key) -> bool:
        return self.inners[self.tenant_of(key)]._lookup(key)

    def contains(self, key) -> bool:
        return self.inners[self.tenant_of(key)].contains(key)

    def remove(self, key):
        remove = getattr(self.inners[self.tenant_of(key)], "remove", None)
        return remove(key) if remove is not None else None

    # -- resident-set portability --------------------------------------------
    def export_residents(self):
        for inner in self.inners.values():
            yield from inner.export_residents()

    def import_resident(self, key, size: int) -> bool:
        return self.inners[self.tenant_of(key)].import_resident(key, size)

    def admit(self, key, size: int) -> bool:
        """Admit into the owner's partition; an object larger than its
        tenant's quota is refused, never force-fitted by draining it."""
        return self.inners[self.tenant_of(key)].admit(key, size)

    # -- quotas ----------------------------------------------------------------
    def quotas(self) -> Dict[int, int]:
        """Current ``{tenant: quota_bytes}`` split."""
        return {t: inner.capacity for t, inner in self.inners.items()}

    def set_quotas(self, quotas: Dict[int, int]) -> Dict[int, int]:
        """Re-split capacity across tenants; returns bytes evicted per tenant.

        Shrinks evict immediately — from the shrunk tenant **only**, via
        its inner policy's own victim selection — so the new split is
        enforced the moment the call returns, not lazily on the next
        admission.  Grows take effect immediately too (the freed bytes
        were already reclaimed by the shrink side).  Emits one
        ``quota_evict`` probe event per tenant that lost residents.
        """
        self._validate_quotas(quotas)
        evicted: Dict[int, int] = {}
        # Shrinks first, then grows: transiently the split only tightens,
        # so the sum of quotas never exceeds capacity mid-update.
        for grow_pass in (False, True):
            for t, quota in quotas.items():
                quota = max(int(quota), 1)
                inner = self.inners[t]
                if (quota > inner.capacity) != grow_pass:
                    continue
                used_before = inner.used
                evs_before = inner.stats.evictions
                inner.capacity = quota
                if inner.used > quota:
                    make_room = getattr(inner, "_make_room", None)
                    if make_room is not None:
                        make_room(0)
                freed = used_before - inner.used
                if freed > 0:
                    count = inner.stats.evictions - evs_before
                    self.quota_evictions += count
                    self.quota_evicted_bytes += freed
                    evicted[t] = freed
                    if self._probe is not None:
                        self._probe.emit(
                            "quota_evict",
                            tenant=t,
                            quota=quota,
                            evicted=count,
                            freed_bytes=freed,
                            t=self.clock,
                        )
        return evicted

    # -- aggregation -------------------------------------------------------------
    @property
    def used(self) -> int:
        return sum(inner.used for inner in self.inners.values())

    @used.setter
    def used(self, value) -> None:  # pragma: no cover - defensive
        raise AttributeError("composite 'used' is derived from the partitions")

    @property
    def stats(self) -> CacheStats:
        """Aggregate counters across tenants (a fresh snapshot per access)."""
        agg = CacheStats()
        for inner in self.inners.values():
            st = inner.stats
            agg.hits += st.hits
            agg.misses += st.misses
            agg.bytes_hit += st.bytes_hit
            agg.bytes_missed += st.bytes_missed
            agg.evictions += st.evictions
            agg.bypasses += st.bypasses
        return agg

    @stats.setter
    def stats(self, value) -> None:  # pragma: no cover - defensive
        raise AttributeError("composite 'stats' is derived from the partitions")

    def tenant_stats(self) -> Dict[int, dict]:
        """Per-tenant counters + quota occupancy (the bench's fairness rows)."""
        out = {}
        for t, inner in self.inners.items():
            row = inner.stats.as_dict()
            row["quota_bytes"] = inner.capacity
            row["used_bytes"] = inner.used
            out[t] = row
        return out

    def __len__(self) -> int:
        total = 0
        for inner in self.inners.values():
            try:
                total += len(inner)
            except (NotImplementedError, TypeError):
                pass
        return total

    def check_invariants(self) -> None:
        """Quota discipline + every inner's own structural checks."""
        assert sum(i.capacity for i in self.inners.values()) <= self.capacity, (
            "quotas exceed total capacity"
        )
        for t, inner in self.inners.items():
            assert inner.used <= inner.capacity, f"tenant {t} over quota"
            check = getattr(inner, "check_invariants", None)
            if check is not None:
                check()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TenantPartitionedCache(capacity={self.capacity}, "
            f"tenants={self.n_tenants}, quotas={self.quotas()})"
        )
