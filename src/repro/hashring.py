"""Consistent-hash routing for :mod:`repro.cluster` and the TDC simulator.

The basic cluster routes by ``hash(key) % n`` — correct for a fixed fleet,
but a production CDN adds and drains nodes continuously, and modulo routing
re-shuffles nearly every key on any fleet change (each reshuffled key is a
cold miss at its new node).  A consistent-hash ring with virtual nodes
bounds the reshuffle to ~1/n of the keyspace per node change, which is why
every real CDN (and TDC's MCP++ stack) routes this way.

:class:`HashRing` is deliberately standalone so ``ClusterRouter`` and
``TDCCluster``'s router hook share it and tests can measure reshuffle
fractions directly.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence

__all__ = ["HashRing"]


def _hash64(data: str) -> int:
    return int.from_bytes(hashlib.blake2b(data.encode(), digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Parameters
    ----------
    nodes:
        Initial node identifiers.
    vnodes:
        Virtual nodes per physical node (more = smoother balance; 64 keeps
        the ring small while bounding imbalance to a few percent).
    """

    def __init__(self, nodes: Sequence[str], vnodes: int = 64):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._ring: List[int] = []
        self._owner: Dict[int, str] = {}
        self._nodes: set = set()
        for node in nodes:
            self.add_node(node)
        if not self._nodes:
            raise ValueError("ring needs at least one node")

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def add_node(self, node: str) -> None:
        """Add a node (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for v in range(self.vnodes):
            point = _hash64(f"{node}#{v}")
            idx = bisect.bisect_left(self._ring, point)
            self._ring.insert(idx, point)
            self._owner[point] = node

    def remove_node(self, node: str) -> None:
        """Drain a node; its keyspace falls to the ring successors."""
        if node not in self._nodes:
            raise KeyError(f"unknown node {node!r}")
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last node")
        self._nodes.discard(node)
        for v in range(self.vnodes):
            point = _hash64(f"{node}#{v}")
            idx = bisect.bisect_left(self._ring, point)
            # The point is present exactly once per vnode.
            if idx < len(self._ring) and self._ring[idx] == point:
                self._ring.pop(idx)
                del self._owner[point]

    def route(self, key: int) -> str:
        """Owning node for ``key`` (first ring point clockwise)."""
        h = _hash64(str(key))
        idx = bisect.bisect_right(self._ring, h)
        if idx == len(self._ring):
            idx = 0
        return self._owner[self._ring[idx]]

    def preference_list(self, key: int, n: int) -> List[str]:
        """The first ``n`` *distinct* nodes clockwise from ``key``'s point.

        This is the replica placement rule of every consistent-hash store
        (Dynamo-style): entry 0 is the primary (identical to :meth:`route`),
        entries 1..n-1 are the successor replicas.  When the ring holds
        fewer than ``n`` nodes the list is simply shorter — callers degrade
        to the replicas that exist.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        h = _hash64(str(key))
        start = bisect.bisect_right(self._ring, h)
        owners: List[str] = []
        seen = set()
        ring_len = len(self._ring)
        for step in range(ring_len):
            node = self._owner[self._ring[(start + step) % ring_len]]
            if node not in seen:
                seen.add(node)
                owners.append(node)
                if len(owners) == n:
                    break
        return owners

    def load_distribution(self, keys: Sequence[int]) -> Dict[str, int]:
        """Keys per node over a sample (balance diagnostics)."""
        out: Dict[str, int] = {n: 0 for n in self._nodes}
        for k in keys:
            out[self.route(k)] += 1
        return out
