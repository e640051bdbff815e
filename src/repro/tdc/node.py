"""TDC storage node — the cache server of Figure 2.

A node wraps one cache policy behind the metadata model §5.1 describes: an
in-memory *inode table* (MD5-keyed index with object size, queue pointers
and the ``insert_pos`` bit, ~110 bytes each) in front of raw-disk object
storage.  The node exposes a ``get`` that returns (hit?, service_latency)
— latency modelling lives in :mod:`repro.tdc.latency`.

The policy is pluggable exactly as in the deployment story: *"since
engineers have deployed LRU in TDC, we have merely replaced LRU's insertion
policy with SCIP"* — :meth:`swap_policy` performs that hot swap, preserving
resident objects in recency order.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.base import CachePolicy
from repro.sim.request import Request

__all__ = ["StorageNode"]

#: Bytes per inode (§5.1: MD5 index, size, queue pointers, insert_pos).
INODE_BYTES = 110


class StorageNode:
    """One cache node of a TDC layer.

    Parameters
    ----------
    name:
        Node identifier (monitoring label).
    policy:
        The cache policy instance serving this node.
    """

    def __init__(self, name: str, policy: CachePolicy):
        self.name = name
        self.policy = policy

    @property
    def capacity(self) -> int:
        return self.policy.capacity

    def get(self, req: Request) -> bool:
        """Serve a request; returns hit/miss.  On a miss the caller (the
        cluster) is responsible for fetching upstream — the node admits the
        object per its policy either way, modelling write-on-miss."""
        return self.policy.request(req)

    def inode_bytes(self) -> int:
        """In-memory metadata footprint (the §5.1 sizing)."""
        return INODE_BYTES * len(self.policy)

    def swap_policy(self, factory: Callable[[int], CachePolicy]) -> None:
        """Hot-swap the cache policy, migrating resident objects.

        Mirrors the TDC deployment: the resident set is preserved (exported
        LRU → MRU so recency order is reconstructed in the new policy);
        only the placement logic changes.  The same ``export_residents`` /
        ``import_resident`` protocol as
        :meth:`repro.serve.shard.CacheShard.swap`: queue-structured policies
        and tenant partitions migrate; a policy that exports nothing or
        takes no imports restarts cold, which is also what a production
        rollout without state migration would do.
        """
        old = self.policy
        new = factory(old.capacity)
        for key, size in old.export_residents():
            new.import_resident(key, size)
        self.policy = new

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StorageNode({self.name!r}, policy={self.policy.name}, used={self.policy.used})"
