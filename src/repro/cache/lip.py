"""LIP, BIP and DIP — the adaptive insertion family of Qureshi et al.
(ISCA'07), ported from CPU last-level caches to size-aware CDN caching.

* **LIP** (LRU Insertion Policy): every missing object is inserted at the
  LRU position; a hit promotes to MRU.  Thrash-resistant but loses hits on
  any reuse pattern longer than one step — the paper's worst comparator.
* **BIP** (Bimodal Insertion Policy): insert at MRU with small probability
  ``epsilon``, else at LRU.  The probabilistic kernel SCIP reuses (§3.1).
* **DIP** (Dynamic Insertion Policy): set-duels LRU vs BIP with a PSEL
  saturating counter and follows the winner.  CDN caches have no sets, so we
  duel on *sampled key hashes* (leader sets → leader key-groups), the
  standard translation for object caches.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.cache.base import LRU_POS, MRU_POS, QueueCache

__all__ = ["LIPCache", "BIPCache", "DIPCache"]


class LIPCache(QueueCache):
    """LRU Insertion Policy: all misses inserted at the LRU end."""

    name = "LIP"

    def _insert_position(self, key: int, size: int) -> int:
        return LRU_POS


class BIPCache(QueueCache):
    """Bimodal Insertion Policy.

    Parameters
    ----------
    epsilon:
        Probability of an MRU insertion (paper default 1/32).
    rng:
        Seeded ``random.Random`` for reproducibility.
    """

    name = "BIP"

    def __init__(self, capacity: int, epsilon: float = 1 / 32, rng: Optional[random.Random] = None):
        super().__init__(capacity)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.epsilon = epsilon
        self.rng = rng or random.Random(0)

    def _insert_position(self, key: int, size: int) -> int:
        return MRU_POS if self.rng.random() < self.epsilon else LRU_POS


class DIPCache(QueueCache):
    """Dynamic Insertion Policy via key-hash set dueling.

    Keys hashing into the LRU leader group always use MRU insertion; keys in
    the BIP leader group always use bimodal insertion.  Misses in a leader
    group move the 10-bit PSEL counter toward the *other* policy; follower
    keys obey PSEL's sign.
    """

    name = "DIP"

    #: Of every ``_DUEL_MOD`` hash buckets, one leads LRU and one leads BIP.
    _DUEL_MOD = 32
    _PSEL_MAX = 1024

    #: Dueling-group tags (ints — this runs once per miss on the hot path).
    LRU_LEADER = 0
    BIP_LEADER = 1
    FOLLOWER = 2

    def __init__(self, capacity: int, epsilon: float = 1 / 32, rng: Optional[random.Random] = None):
        super().__init__(capacity)
        self.epsilon = epsilon
        self.rng = rng or random.Random(0)
        self.psel = self._PSEL_MAX // 2

    def _group(self, key: int) -> int:
        h = hash(key) % self._DUEL_MOD
        if h == 0:
            return self.LRU_LEADER
        if h == 1:
            return self.BIP_LEADER
        return self.FOLLOWER

    def _insert_position(self, key: int, size: int) -> int:
        g = self._group(key)
        if g == self.LRU_LEADER:
            # A miss for an LRU-leader key is evidence against pure LRU.
            self.psel = min(self.psel + 1, self._PSEL_MAX)
            return MRU_POS
        if g == self.BIP_LEADER:
            self.psel = max(self.psel - 1, 0)
            return MRU_POS if self.rng.random() < self.epsilon else LRU_POS
        # Follower: PSEL above midpoint means BIP is losing fewer requests.
        if self.psel >= self._PSEL_MAX // 2:
            return MRU_POS if self.rng.random() < self.epsilon else LRU_POS
        return MRU_POS
