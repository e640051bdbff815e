"""First-In First-Out cache.

Insertion at MRU, but hits do **not** promote — the queue preserves arrival
order, so the victim is always the oldest resident object.  FIFO is the
eviction rule used inside SCIP's history lists (§3.2) and a useful sanity
baseline (it is immune to promotion effects by construction).
"""

from __future__ import annotations

from repro.cache.base import QueueCache
from repro.cache.queue import Node

__all__ = ["FIFOCache"]


class FIFOCache(QueueCache):
    """Size-aware FIFO."""

    name = "FIFO"

    def _on_hit(self, node: Node) -> Node:
        # No promotion: arrival order is eviction order.
        return node
