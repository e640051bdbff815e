"""LeCaR — Learning Cache Replacement (Vietri et al., HotStorage'18).

LeCaR runs two experts — LRU and LFU — and, on each eviction, follows the
expert sampled from a weight pair updated by *regret*: when a missing object
is found in an expert's ghost list, that expert is blamed (its weight decays
multiplicatively with a reward discounted by how long ago the mistake
happened).  This is the reinforcement-learning lineage the paper builds on:
SCIP applies the same machinery to *insertion position* instead of victim
selection (§2.3 cites LeCaR as the MAB precedent).

Internal structure: one LRU queue, per-object frequency counts (for the LFU
expert's victim choice), and two FIFO ghost lists sized like the cache.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.cache.base import MRU_POS, QueueCache
from repro.cache.queue import Node
from repro.core.history import HistoryList

__all__ = ["LeCaRCache"]


class LeCaRCache(QueueCache):
    """LRU/LFU expert mixture with regret-based weights.

    Parameters
    ----------
    learning_rate:
        Multiplicative update strength (original: 0.45).
    discount:
        Per-step regret discount (original: 0.005 ** (1/N); we use the
        byte-scaled equivalent with N = expected resident object count).
    """

    name = "LeCaR"

    def __init__(
        self,
        capacity: int,
        learning_rate: float = 0.45,
        discount_base: float = 0.005,
        seed: int = 0,
    ):
        super().__init__(capacity)
        self.learning_rate = learning_rate
        self.rng = random.Random(seed)
        self.w_lru = 0.5
        self.w_lfu = 0.5
        self.ghost_lru = HistoryList(capacity)
        self.ghost_lfu = HistoryList(capacity)
        self._freq: dict = {}
        self._ghost_time: dict = {}
        # Discount so a mistake N requests old carries weight discount_base.
        expected_n = max(capacity // (44 * 1024), 16)
        self.discount = discount_base ** (1.0 / expected_n)

    # -- expert victim choices -----------------------------------------------------
    def _lfu_victim(self) -> Node:
        """Least-frequent resident; ties by LRU order.  Scans a bounded
        window from the LRU end (full-scan LFU would dominate runtime and
        the original uses a heap; the window keeps ranking near-exact since
        low-frequency objects sink to the tail anyway)."""
        best: Optional[Node] = None
        best_f = math.inf
        for i, node in enumerate(self.queue.iter_lru()):
            if i >= 32:
                break
            f = self._freq.get(node.key, 1)
            if f < best_f:
                best_f = f
                best = node
        assert best is not None
        return best

    def _choose_victim(self) -> Node:
        if self.rng.random() < self.w_lru:
            tail = self.queue.tail
            assert tail is not None
            victim, chooser = tail, "lru"
        else:
            victim, chooser = self._lfu_victim(), "lfu"
        victim.data = chooser  # remember which expert chose it
        return victim

    # -- regret updates ----------------------------------------------------------------
    def _before_admit(self, key: int, size: int) -> bool:
        """Blame the expert whose ghost holds ``key``; admit it either way."""
        t = self._ghost_time.pop(key, None)
        if t is None:
            return True
        reward = self.discount ** (self.clock - t)
        in_lru = self.ghost_lru.delete(key)
        in_lfu = self.ghost_lfu.delete(key)
        if in_lru:
            self.w_lru *= math.exp(-self.learning_rate * reward)
        elif in_lfu:
            self.w_lfu *= math.exp(-self.learning_rate * reward)
        total = self.w_lru + self.w_lfu
        self.w_lru /= total
        self.w_lfu = 1.0 - self.w_lru
        return True

    # -- hooks ----------------------------------------------------------------------------
    def _on_insert(self, node: Node) -> None:
        self._freq[node.key] = self._freq.get(node.key, 0) + 1

    def _on_hit(self, node: Node) -> int:
        self._freq[node.key] = self._freq.get(node.key, 0) + 1
        return MRU_POS

    def _on_evict(self, node: Node) -> None:
        chooser = node.data if node.data in ("lru", "lfu") else "lru"
        if chooser == "lru":
            self.ghost_lru.add(node.key, node.size)
        else:
            self.ghost_lfu.add(node.key, node.size)
        self._ghost_time[node.key] = self.clock
        # Frequency memory follows the object out (LeCaR keeps freq only for
        # residents + ghosts; prune when neither holds the key).
        if node.key not in self.ghost_lru and node.key not in self.ghost_lfu:
            self._freq.pop(node.key, None)
            self._ghost_time.pop(node.key, None)

    def metadata_bytes(self) -> int:
        return (
            110 * len(self)
            + self.ghost_lru.metadata_bytes()
            + self.ghost_lfu.metadata_bytes()
            + 16 * len(self._freq)
        )
