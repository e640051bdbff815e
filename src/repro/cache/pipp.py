"""PIPP — Promotion/Insertion Pseudo-Partitioning (Xie & Loh, ISCA'09).

PIPP inserts at an intermediate queue position and, on a hit, promotes the
object **one step** toward MRU (with probability ``p_prom``) instead of
jumping to the head.  The paper singles this out (§1): single-step promotion
still strands P-ZROs in large CDN caches.

Positional insertion in a size-aware linked queue is implemented with a
*finger pointer* kept ``insert_frac`` of the way from the LRU end (in object
count).  The finger is recalibrated lazily every ``_RECAL`` operations by a
short walk, keeping amortised cost O(1); exact positioning is not required —
PIPP itself only needs "somewhere mid-queue".  The hooks name the finger
(insertion) or the toward-MRU neighbour (promotion) as the anchor; the
queue kernel does the linking.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.cache.base import LRU_POS, QueueCache
from repro.cache.queue import Node

__all__ = ["PIPPCache"]


class PIPPCache(QueueCache):
    """Single-tenant PIPP.

    Parameters
    ----------
    insert_frac:
        Fractional insertion depth from the LRU end (0 = LRU, 1 = MRU).
        The multi-core original derives this from partition allocations; for
        one tenant the authors' single-partition default is mid-queue.
    p_prom:
        Probability that a hit promotes one position (original: 3/4).
    """

    name = "PIPP"

    _RECAL = 64  # operations between finger recalibrations

    def __init__(
        self,
        capacity: int,
        insert_frac: float = 0.5,
        p_prom: float = 0.75,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(capacity)
        if not 0.0 <= insert_frac <= 1.0:
            raise ValueError(f"insert_frac must be in [0, 1], got {insert_frac}")
        self.insert_frac = insert_frac
        self.p_prom = p_prom
        self.rng = rng or random.Random(0)
        self._finger: Optional[Node] = None
        self._ops = 0

    # -- finger maintenance ---------------------------------------------------
    def _recalibrate(self) -> None:
        """Walk from the LRU end to the target depth; O(frac·n) but amortised
        over ``_RECAL`` constant-time operations."""
        target = int(len(self.queue) * self.insert_frac)
        node = self.queue.tail
        for _ in range(target):
            if node is None or node.prev is None or node.prev.key is None:
                break
            node = node.prev
        self._finger = node

    def _finger_node(self) -> Optional[Node]:
        self._ops += 1
        if self._finger is None or self._ops % self._RECAL == 0:
            self._recalibrate()
        # The finger may have left the cache (evicted / removed) since the
        # last recalibration; a resident node is the index's own.
        f = self._finger
        if f is not None and self.index.get(f.key) is not f:
            self._recalibrate()
            f = self._finger
        return f

    # -- hooks ----------------------------------------------------------------
    def _insert_position(self, key: int, size: int):
        """Before the finger (mid-queue counts as non-MRU)."""
        anchor = self._finger_node()
        if anchor is None or len(self.queue) == 0 or self.insert_frac == 0.0:
            # frac 0 means the exact LRU position, not one above the tail.
            return LRU_POS
        return anchor

    def _on_hit(self, node: Node) -> Node:
        """One step toward MRU with probability ``p_prom``: before the
        neighbour on that side (a node at the MRU end stays)."""
        if self.rng.random() < self.p_prom and node.prev.key is not None:
            return node.prev
        return node
