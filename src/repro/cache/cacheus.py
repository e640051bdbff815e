"""CACHEUS (Rodriguez et al., FAST'21) — LeCaR's successor.

Two changes over LeCaR, both reproduced here:

1. **Adaptive learning rate.**  The fixed 0.45 is replaced by a rate tuned
   from performance deltas with random restarts — the very mechanism the
   SCIP paper adapts into Algorithm 2.  We therefore reuse
   :class:`repro.core.learning.LearningRateController` (the SCIP and CACHEUS
   update rules are the same gradient-based stochastic hill climbing).
2. **Scan/churn-resistant experts.**  SR-LRU: a demotion front keeps
   once-accessed objects in a probationary region so scans wash through
   without displacing reused data (we realise it as insert-probationary,
   promote-on-second-access segmented LRU).  CR-LFU breaks LFU ties by MRU
   (churn resistance) rather than LRU.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.cache.base import LRU_POS, MRU_POS, QueueCache
from repro.cache.queue import Node
from repro.core.history import HistoryList
from repro.core.learning import LearningRateController

__all__ = ["CacheusCache"]


class CacheusCache(QueueCache):
    """CACHEUS: SR-LRU + CR-LFU experts, adaptive learning rate."""

    name = "CACHEUS"

    def __init__(self, capacity: int, update_interval: int = 1000, seed: int = 0):
        super().__init__(capacity)
        rng = random.Random(seed)
        self.rng = rng
        self.w_srlru = 0.5
        self.w_crlfu = 0.5
        self.ghost_srlru = HistoryList(capacity)
        self.ghost_crlfu = HistoryList(capacity)
        self._ghost_time: dict = {}
        self._freq: dict = {}
        self.lr = LearningRateController(initial=0.45, rng=rng)
        self.update_interval = update_interval
        self._win_hits = 0
        self._win_reqs = 0
        self._prev_rate = 0.0
        expected_n = max(capacity // (44 * 1024), 16)
        self.discount = 0.005 ** (1.0 / expected_n)

    # -- SR-LRU structure: probationary insertion, promote on reuse -----------------
    def _insert_position(self, key: int, size: int):
        # Probationary insert: a few steps above the tail so brand-new
        # objects outrank long-cold ones but stay in the scan-wash region.
        anchor = self.queue.tail
        for _ in range(4):
            if anchor is None or anchor.prev.key is None:
                break
            anchor = anchor.prev
        return LRU_POS if anchor is None else anchor

    def _on_insert(self, node: Node) -> None:
        self._freq[node.key] = self._freq.get(node.key, 0) + 1

    def _on_hit(self, node: Node) -> int:
        self._freq[node.key] = self._freq.get(node.key, 0) + 1
        node.inserted_mru = True
        return MRU_POS  # promotion to protected front

    # -- experts --------------------------------------------------------------------------
    def _crlfu_victim(self) -> Node:
        """Least-frequent; ties broken by MRU (churn resistance)."""
        best: Optional[Node] = None
        best_f = math.inf
        for i, node in enumerate(self.queue.iter_lru()):
            if i >= 32:
                break
            f = self._freq.get(node.key, 1)
            if f <= best_f:  # '<=' keeps the most recent among equals
                best_f = f
                best = node
        assert best is not None
        return best

    def _choose_victim(self) -> Node:
        if self.rng.random() < self.w_srlru:
            tail = self.queue.tail
            assert tail is not None
            victim, chooser = tail, "srlru"
        else:
            victim, chooser = self._crlfu_victim(), "crlfu"
        victim.data = chooser
        return victim

    def _before_admit(self, key: int, size: int) -> bool:
        """Blame the expert whose ghost holds ``key``; admit it either way."""
        t = self._ghost_time.pop(key, None)
        if t is None:
            return True
        reward = self.discount ** (self.clock - t)
        lam = self.lr.value
        if self.ghost_srlru.delete(key):
            self.w_srlru *= math.exp(-lam * reward)
        elif self.ghost_crlfu.delete(key):
            self.w_crlfu *= math.exp(-lam * reward)
        total = self.w_srlru + self.w_crlfu
        self.w_srlru /= total
        self.w_crlfu = 1.0 - self.w_srlru
        return True

    def _on_evict(self, node: Node) -> None:
        chooser = node.data if node.data in ("srlru", "crlfu") else "srlru"
        if chooser == "srlru":
            self.ghost_srlru.add(node.key, node.size)
        else:
            self.ghost_crlfu.add(node.key, node.size)
        self._ghost_time[node.key] = self.clock
        if node.key not in self.ghost_srlru and node.key not in self.ghost_crlfu:
            self._freq.pop(node.key, None)
            self._ghost_time.pop(node.key, None)

    # -- adaptive learning rate ---------------------------------------------------------------
    def _after_request(self, hit: bool) -> None:
        self._win_reqs += 1
        if hit:
            self._win_hits += 1
        if self._win_reqs >= self.update_interval:
            rate = self._win_hits / self._win_reqs
            self.lr.update(rate, self._prev_rate)
            self._prev_rate = rate
            self._win_hits = 0
            self._win_reqs = 0

    def metadata_bytes(self) -> int:
        return (
            110 * len(self)
            + self.ghost_srlru.metadata_bytes()
            + self.ghost_crlfu.metadata_bytes()
            + 16 * len(self._freq)
        )
