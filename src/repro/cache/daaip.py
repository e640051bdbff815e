"""DAAIP — Deadblock Aware Adaptive Insertion Policy (Mahto et al., ICCD'17).

DAAIP predicts *dead-on-arrival* objects ("deadblocks" — the CPU-cache name
for what the paper calls ZROs) using a reuse history table, and steers
predicted-dead insertions to the LRU position.  The table is trained from
eviction outcomes: a victim evicted without any hit strengthens the dead
prediction for its signature; reuse weakens it.  An adaptive *confidence*
counter raises the prediction threshold by one while dead predictions keep
being disproved by hits.  Every hit promotes to MRU.

Signatures are the same pure key-group hash used by our SHiP port (the
original indexes its tables by PC; size is deliberately kept out so the
comparison with the size-threshold ASC-IP stays meaningful).
"""

from __future__ import annotations

from repro.cache.base import LRU_POS, MRU_POS, QueueCache
from repro.cache.queue import Node

__all__ = ["DAAIPCache"]


class DAAIPCache(QueueCache):
    """Deadblock-aware adaptive insertion.

    Parameters
    ----------
    table_size:
        Entries in the dead-prediction table.
    dead_threshold:
        Counter value at or above which an insertion is predicted dead.
    max_counter:
        Saturation ceiling.
    """

    name = "DAAIP"

    def __init__(
        self,
        capacity: int,
        table_size: int = 16384,
        dead_threshold: int = 2,
        max_counter: int = 3,
    ):
        super().__init__(capacity)
        self.table_size = table_size
        self.dead_threshold = dead_threshold
        self.max_counter = max_counter
        self._dead = [0] * table_size
        # Global duelling counter adapting the threshold's aggressiveness:
        # high values mean dead predictions have been paying off.
        self._confidence = 0

    def _signature(self, key: int) -> int:
        return (hash(key) // 64) % self.table_size

    def _insert_position(self, key: int, size: int) -> int:
        thr = self.dead_threshold if self._confidence >= 0 else self.dead_threshold + 1
        return LRU_POS if self._dead[self._signature(key)] >= thr else MRU_POS

    def _on_insert(self, node: Node) -> None:
        node.data = self._signature(node.key)

    def _on_hit(self, node: Node) -> int:
        sig = node.data
        if sig is not None and self._dead[sig] > 0:
            self._dead[sig] -= 1
            if not node.inserted_mru:
                # We predicted dead but it was reused: lose confidence.
                self._confidence = max(self._confidence - 1, -1024)
        return MRU_POS

    def _on_evict(self, node: Node) -> None:
        sig = node.data
        if sig is None:
            return
        if not node.hit_token:
            if self._dead[sig] < self.max_counter:
                self._dead[sig] += 1
            if not node.inserted_mru:
                # Dead prediction confirmed by a dead eviction.
                self._confidence = min(self._confidence + 1, 1024)

    def metadata_bytes(self) -> int:
        return 110 * len(self) + self.table_size
