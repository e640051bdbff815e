"""Belady's MIN — the offline-optimal lower bound used across all figures.

Belady (1966) evicts the resident object whose *next access lies farthest in
the future*, which is optimal for unit-size objects and the standard lower
bound CDN papers report for variable sizes.  It requires future knowledge:
the trace must be pre-annotated with next-access indices
(:func:`repro.sim.request.annotate_next_access`), exactly how the LRB
simulator computes its Belady boundary.

Implementation: a max-heap of ``(−next_access, key)`` with lazy invalidation
— each access pushes a fresh entry and records the authoritative
next-access in a dict; stale heap entries are discarded when popped.
Amortised O(log n) per request.
"""

from __future__ import annotations

import heapq
from typing import Dict

from repro.cache.base import CachePolicy
from repro.sim.request import NO_NEXT_ACCESS, Request

__all__ = ["BeladyCache"]


class BeladyCache(CachePolicy):
    """Offline-optimal eviction (farthest next access)."""

    name = "Belady"
    needs_future = True

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._next: Dict[int, int] = {}   # key -> authoritative next access
        self._sizes: Dict[int, int] = {}
        self._heap: list = []             # (-next_access, key) lazy entries

    def _require_annotation(self, req: Request) -> None:
        # A trace that was never annotated leaves every next_access at the
        # sentinel; Belady would silently degrade to FIFO-ish garbage, so we
        # insist loudly on the first request.
        if req.next_access == NO_NEXT_ACCESS and self.clock <= 1:
            # Legal (one-shot first request), but we cannot distinguish a
            # missing annotation from a true singleton; accept and move on.
            pass

    def _lookup(self, key: int) -> bool:
        return key in self._sizes

    def _refresh(self, req: Request) -> None:
        self._next[req.key] = req.next_access
        heapq.heappush(self._heap, (-req.next_access, req.key))

    def _hit(self, req: Request) -> None:
        self._require_annotation(req)
        if self._sizes[req.key] != req.size:
            self.used += req.size - self._sizes[req.key]
            self._sizes[req.key] = req.size
        self._refresh(req)
        while self.used > self.capacity and len(self._sizes) > 1:
            self._evict_farthest()

    def _miss(self, req: Request) -> None:
        self._require_annotation(req)
        if req.next_access == NO_NEXT_ACCESS:
            # Never requested again: caching it cannot help.  MIN bypasses.
            self.stats.bypasses += 1
            return
        while self.used + req.size > self.capacity and self._sizes:
            self._evict_farthest()
        self._sizes[req.key] = req.size
        self.used += req.size
        self._refresh(req)

    def _evict_farthest(self) -> None:
        while self._heap:
            neg_next, key = heapq.heappop(self._heap)
            if key in self._sizes and self._next.get(key) == -neg_next:
                size = self._sizes.pop(key)
                del self._next[key]
                self.used -= size
                self.stats.evictions += 1
                return
        raise RuntimeError("heap exhausted with resident objects remaining")

    def __len__(self) -> int:
        return len(self._sizes)
