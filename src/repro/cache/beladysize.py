"""Belady-Size — an offline size-aware bound tighter than classic MIN on
the *object* miss ratio.

Classic Belady ignores sizes; with variable objects, evicting one huge
far-future object can retain many small near-future ones.  This oracle
ranks residents by ``size × next_access_distance`` — the byte·time of cache
space the object consumes before paying its single future hit — and evicts
the most expensive one.
Greedy size-aware MIN is not optimal (offline caching with sizes is
NP-hard), but it is a standard stronger baseline and lower-bounds typically
below classic MIN on object miss ratio for CDN size distributions.

Included as an extension beyond the paper's evaluation (which uses classic
Belady); the benches report both floors.
"""

from __future__ import annotations

import heapq
from typing import Dict

from repro.cache.base import CachePolicy
from repro.sim.request import NO_NEXT_ACCESS, Request

__all__ = ["BeladySizeCache"]


class BeladySizeCache(CachePolicy):
    """Greedy size-aware offline oracle (evict max size × distance)."""

    name = "Belady-Size"
    needs_future = True

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._next: Dict[int, int] = {}
        self._sizes: Dict[int, int] = {}
        self._heap: list = []  # (-ratio, key, next_access) lazy entries

    def _cost(self, req_next: int, size: int) -> float:
        """Byte·time consumed before the next hit (eviction score)."""
        return float(max(req_next - self.clock, 1)) * max(size, 1)

    def _refresh(self, req: Request) -> None:
        self._next[req.key] = req.next_access
        heapq.heappush(
            self._heap,
            (-self._cost(req.next_access, req.size), req.key, req.next_access),
        )

    def _lookup(self, key: int) -> bool:
        return key in self._sizes

    def _hit(self, req: Request) -> None:
        if self._sizes[req.key] != req.size:
            self.used += req.size - self._sizes[req.key]
            self._sizes[req.key] = req.size
        self._refresh(req)
        while self.used > self.capacity and len(self._sizes) > 1:
            self._evict_worst()

    def _miss(self, req: Request) -> None:
        if req.next_access == NO_NEXT_ACCESS:
            self.stats.bypasses += 1
            return
        while self.used + req.size > self.capacity and self._sizes:
            self._evict_worst()
        self._sizes[req.key] = req.size
        self.used += req.size
        self._refresh(req)

    def _evict_worst(self) -> None:
        while self._heap:
            _, key, nxt = heapq.heappop(self._heap)
            if key in self._sizes and self._next.get(key) == nxt:
                self.used -= self._sizes.pop(key)
                del self._next[key]
                self.stats.evictions += 1
                return
        raise RuntimeError("heap exhausted with resident objects remaining")

    def __len__(self) -> int:
        return len(self._sizes)
