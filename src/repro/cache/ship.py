"""SHiP — Signature-based Hit Predictor (Wu et al., MICRO'11).

SHiP associates each insertion with a *signature* and learns, per signature,
whether objects carrying it tend to be re-referenced before eviction.  A
table of saturating counters (SHCT) is trained on eviction outcomes:
an eviction without reuse decrements the victim's signature counter; a hit
increments it.  Misses whose signature counter is zero are predicted
"distant re-reference" and inserted at the LRU position.

CPU SHiP signs by instruction PC — a grouping of *related accesses*, not a
property of the cached data.  An object cache has no PC; the closest
translation is a key-group hash (objects from the same URL shard/content
family share fate).  We deliberately do NOT fold object size into the
signature: that would graft ASC-IP's size heuristic onto SHiP and blur the
comparison the paper draws between the two.
"""

from __future__ import annotations

from repro.cache.base import LRU_POS, MRU_POS, QueueCache
from repro.cache.queue import Node

__all__ = ["SHiPCache"]


class SHiPCache(QueueCache):
    """SHiP-style predicted insertion over an LRU queue.

    Parameters
    ----------
    table_size:
        Number of SHCT entries (signature space is hashed into this).
    max_counter:
        Saturation ceiling of each counter (3-bit in the original → 7).
    """

    name = "SHiP"

    def __init__(self, capacity: int, table_size: int = 16384, max_counter: int = 7):
        super().__init__(capacity)
        self.table_size = table_size
        self.max_counter = max_counter
        # Weak-reuse start: 1 means "unknown, lean MRU" until evidence lands.
        self._shct = [1] * table_size

    def _signature(self, key: int) -> int:
        # Key-group signature: 64 adjacent key hashes share a signature,
        # the object-cache analog of instructions sharing a PC region.
        return (hash(key) // 64) % self.table_size

    def _insert_position(self, key: int, size: int) -> int:
        return LRU_POS if self._shct[self._signature(key)] == 0 else MRU_POS

    def _on_insert(self, node: Node) -> None:
        node.data = self._signature(node.key)

    def _on_hit(self, node: Node) -> int:
        sig = node.data
        if sig is not None:
            c = self._shct[sig]
            if c < self.max_counter:
                self._shct[sig] = c + 1
        return MRU_POS

    def _on_evict(self, node: Node) -> None:
        if not node.hit_token and node.data is not None:
            c = self._shct[node.data]
            if c > 0:
                self._shct[node.data] = c - 1

    def metadata_bytes(self) -> int:
        return 110 * len(self) + self.table_size  # 1 byte per counter
