"""Admission policies — the related-work family of §7.

The paper distinguishes *insertion-position* policies (its own territory)
from *admission* policies, which deny some objects entry altogether.  Three
canonical members are implemented over the same LRU substrate so the two
families can be compared head-to-head:

* **2Q** (Johnson & Shasha, VLDB'94) — a FIFO probation queue (``A1in``)
  plus a ghost list (``A1out``); only objects re-requested from probation
  or the ghost enter the protected LRU queue.
* **TinyLFU** (Einziger, Friedman & Manes, TOS'17) — a count-min sketch of
  recent popularity gates admission: a new object enters only if its
  estimated frequency beats the would-be victim's.
* **AdaptSize** (Berger, Sitaraman & Harchol-Balter, NSDI'17) —
  probabilistic size-aware admission ``P(admit) = e^{-size/c}`` with the
  cutoff ``c`` tuned online by comparing hit ratios across shadow values.

All three reject ZRO-ish traffic *before* it occupies the queue, which is
the same pollution SCIP handles by position — the integration tests compare
both approaches on the CDN workloads.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.cache.base import CachePolicy, QueueCache
from repro.cache.queue import LinkedQueue, Node
from repro.core.history import HistoryList
from repro.sim.request import Request

__all__ = ["TwoQCache", "TinyLFUCache", "AdaptSizeCache"]


class TwoQCache(CachePolicy):
    """2Q with byte-sized queues (Kin=25 %, Kout=50 % of capacity)."""

    name = "2Q"

    def __init__(self, capacity: int, kin: float = 0.25, kout: float = 0.5):
        super().__init__(capacity)
        self.a1in_cap = max(int(capacity * kin), 1)
        self.a1in = LinkedQueue()     # FIFO probation (resident)
        self.am = LinkedQueue()       # protected LRU (resident)
        self.a1out = HistoryList(int(capacity * kout))  # ghost metadata
        self._where: dict = {}

    def _lookup(self, key: int) -> bool:
        return key in self._where

    def _hit(self, req: Request) -> None:
        node, tag = self._where[req.key]
        if tag == "am":
            self.am.unlink(node)
        else:
            # A probation hit proves reuse: promote into Am (2Q's rule is
            # promote-on-A1out-hit; the simplified 2Q promotes probation
            # hits too, which behaves better for byte-sized web objects).
            self.a1in.unlink(node)
        if node.size != req.size:
            self.used += req.size - node.size
            node.size = req.size
        self.am.push_mru(node)
        self._where[req.key] = (node, "am")
        self._enforce()

    def _miss(self, req: Request) -> None:
        node = Node(req.key, req.size)
        if self.a1out.delete(req.key):
            # Seen recently: admit straight into the protected queue.
            self.am.push_mru(node)
            self._where[req.key] = (node, "am")
        else:
            self.a1in.push_mru(node)
            self._where[req.key] = (node, "a1in")
        self.used += req.size
        self._enforce()

    def _enforce(self) -> None:
        while self.used > self.capacity and self._where:
            if self.a1in.bytes > self.a1in_cap and len(self.a1in):
                victim = self.a1in.pop_lru()
                self.a1out.add(victim.key, victim.size)
            elif len(self.am):
                victim = self.am.pop_lru()
            else:
                victim = self.a1in.pop_lru()
                self.a1out.add(victim.key, victim.size)
            del self._where[victim.key]
            self.used -= victim.size
            self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._where)

    def metadata_bytes(self) -> int:
        return 110 * len(self) + self.a1out.metadata_bytes()


class _CountMinSketch:
    """4-row count-min sketch with periodic halving (TinyLFU's reset)."""

    __slots__ = ("width", "rows", "_adds", "reset_at")

    def __init__(self, width: int = 4096, reset_at: int = 100_000):
        self.width = width
        self.rows = [[0] * width for _ in range(4)]
        self._adds = 0
        self.reset_at = reset_at

    _SEEDS = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F)

    def _idx(self, key: int, row: int) -> int:
        return (hash(key) ^ self._SEEDS[row]) % self.width

    def add(self, key: int) -> None:
        for r in range(4):
            self.rows[r][self._idx(key, r)] += 1
        self._adds += 1
        if self._adds >= self.reset_at:
            self._adds //= 2
            for row in self.rows:
                for i in range(self.width):
                    row[i] >>= 1

    def estimate(self, key: int) -> int:
        return min(self.rows[r][self._idx(key, r)] for r in range(4))


class TinyLFUCache(QueueCache):
    """LRU with a TinyLFU admission gate."""

    name = "TinyLFU"

    def __init__(self, capacity: int, sketch_width: int = 4096):
        super().__init__(capacity)
        self.sketch = _CountMinSketch(width=sketch_width)

    def _on_access(self, key: int, size: int) -> None:
        self.sketch.add(key)

    def _before_admit(self, key: int, size: int) -> bool:
        # Admission duel: the newcomer must beat the would-be victim's
        # estimated frequency, otherwise it is not admitted at all.
        victim = self.queue.tail
        if self.used + size > self.capacity and victim is not None:
            return self.sketch.estimate(key) > self.sketch.estimate(victim.key)
        return True

    def metadata_bytes(self) -> int:
        return 110 * len(self) + 4 * self.sketch.width * 2


class AdaptSizeCache(QueueCache):
    """LRU with AdaptSize's probabilistic size-aware admission.

    ``P(admit) = exp(-size / c)``; the cutoff ``c`` is retuned every
    ``tune_interval`` requests by evaluating a small grid of shadow cutoffs
    against the recent request mix (a direct, simplified stand-in for the
    original's Markov-model optimisation).
    """

    name = "AdaptSize"

    def __init__(
        self,
        capacity: int,
        init_cutoff: Optional[float] = None,
        tune_interval: int = 20_000,
        seed: int = 0,
    ):
        super().__init__(capacity)
        self.cutoff = float(init_cutoff or max(capacity / 20, 4096.0))
        self.tune_interval = tune_interval
        self.rng = random.Random(seed)
        # Recent-window bookkeeping for the shadow evaluation.
        self._window: List[tuple] = []  # (key, size)
        self._grid = (0.25, 0.5, 1.0, 2.0, 4.0)

    def _on_access(self, key: int, size: int) -> None:
        self._window.append((key, size))
        if len(self._window) >= self.tune_interval:
            self._tune()

    def _before_admit(self, key: int, size: int) -> bool:
        return self.rng.random() <= math.exp(-size / self.cutoff)

    def _tune(self) -> None:
        """Pick the grid multiple of the current cutoff that would have
        served the most *object hits* on the recent window (greedy shadow
        replay with a byte-budget knapsack approximation)."""
        window, self._window = self._window, []
        from collections import Counter

        counts = Counter(k for k, _ in window)
        sizes = {k: s for k, s in window}
        best_cut, best_score = self.cutoff, -1.0
        for mult in self._grid:
            cut = self.cutoff * mult
            # Expected hits if objects were admitted with e^{-s/c}: an
            # object seen n times contributes (n-1)·P(admit); byte budget
            # discounts oversubscription.
            score = 0.0
            admitted_bytes = 0.0
            for k, n in counts.items():
                p = math.exp(-sizes[k] / cut)
                score += (n - 1) * p
                admitted_bytes += sizes[k] * p
            if admitted_bytes > self.capacity:
                score *= self.capacity / admitted_bytes
            if score > best_score:
                best_score, best_cut = score, cut
        self.cutoff = min(max(best_cut, 64.0), 1e12)
