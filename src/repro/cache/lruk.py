"""LRU-K (O'Neil, O'Neil & Weikum, SIGMOD'93).

Evicts the resident object with the largest *backward K-distance*: the time
since its K-th most recent access.  Objects with fewer than K recorded
accesses have infinite K-distance and are preferred victims, broken among
themselves by plain LRU order — which is why the recency queue still matters
and why SCIP's insertion position can improve LRU-K (Figure 12): SCIP pushes
suspected ZROs to the tail of exactly that tie-breaking order.

Implementation: each node's ``data`` holds a bounded access-time history;
victim selection walks eviction candidates from the LRU end of the queue and
picks the max-K-distance among an inspection window (the full queue is never
scanned; the window is a small constant like LRB's eviction sampling).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.cache.base import MRU_POS, QueueCache
from repro.cache.queue import Node

__all__ = ["LRUKCache"]


class LRUKCache(QueueCache):
    """Size-aware LRU-K over the shared queue substrate.

    Parameters
    ----------
    k:
        History depth (classic default 2).
    sample:
        Eviction inspection window: number of LRU-end candidates among which
        the max-K-distance victim is chosen.
    """

    name = "LRU-K"

    def __init__(self, capacity: int, k: int = 2, sample: int = 16):
        super().__init__(capacity)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.sample = sample

    def _on_insert(self, node: Node) -> None:
        node.data = deque([self.clock], maxlen=self.k)

    def _on_hit(self, node: Node) -> int:
        node.data.append(self.clock)
        return MRU_POS

    def _kdist(self, node: Node) -> float:
        hist = node.data
        if hist is None or len(hist) < self.k:
            return float("inf")
        return self.clock - hist[0]

    def _choose_victim(self) -> Node:
        best: Optional[Node] = None
        best_d = -1.0
        for i, node in enumerate(self.queue.iter_lru()):
            if i >= self.sample:
                break
            d = self._kdist(node)
            if d == float("inf"):
                # Infinite K-distance at the LRU end: unbeatable victim.
                return node
            if d > best_d:
                best_d = d
                best = node
        assert best is not None
        return best

    def metadata_bytes(self) -> int:
        return (110 + 8 * self.k) * len(self)
