"""Least Recently Used (LRU) — the default CDN policy SCIP augments.

Insertion: MRU position.  Promotion: move to MRU on hit.  Victim: LRU end.
This is the baseline against which Figure 1 measures ZRO/P-ZRO pollution.
"""

from __future__ import annotations

from repro.cache.base import QueueCache

__all__ = ["LRUCache"]


class LRUCache(QueueCache):
    """Classic size-aware LRU.

    Every extension point is the :class:`QueueCache` default, so the class
    exists to give the baseline a name and a stable import point: the
    kernel with nothing set is LRU, through either driver and under any
    probe.
    """

    name = "LRU"
