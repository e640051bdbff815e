"""DTA — insertion-policy selection by Decision Tree Analysis
(Khan & Jiménez, ICCD'10).

The original profiles a handful of candidate insertion policies with *set
dueling*, then runs a decision-tree analysis over the duel outcomes to pick
the policy for the follower sets, re-evaluating every epoch.  We reproduce
that structure for an object cache:

* candidate policies: MRU-insert, LRU-insert, bimodal(1/32), bimodal(1/2);
* each candidate "leads" a sampled key-group whose misses are tallied;
* every ``epoch`` requests, a depth-2 decision tree over the tallies (the
  pairwise duel outcomes) selects the policy followers use next epoch.

The paper classifies DTA among "learning-based" insertion policies whose CPU
cost exceeds simple heuristics — our epoch analysis reproduces that profile.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.cache.base import LRU_POS, MRU_POS, QueueCache

__all__ = ["DTACache"]


class DTACache(QueueCache):
    """Decision-tree-analysed adaptive insertion."""

    name = "DTA"

    #: Candidate insertion policies: probability of inserting at MRU.
    _CANDIDATES: List[float] = [1.0, 0.0, 1 / 32, 0.5]
    _GROUPS = 64  # key-hash groups; first len(_CANDIDATES) groups are leaders

    def __init__(self, capacity: int, epoch: int = 4096, rng: Optional[random.Random] = None):
        super().__init__(capacity)
        self.epoch = epoch
        self.rng = rng or random.Random(0)
        self._leader_misses = [0] * len(self._CANDIDATES)
        self._leader_reqs = [1] * len(self._CANDIDATES)
        self._chosen = 0  # index into _CANDIDATES used by followers
        self._since_epoch = 0

    # -- the "decision tree analysis" over duel outcomes -----------------------
    def _analyse(self) -> int:
        """Depth-2 tree: first split on MRU-vs-LRU duel, then refine with the
        bimodal candidates — mirrors the original's tree over duel features."""
        rates = [m / r for m, r in zip(self._leader_misses, self._leader_reqs)]
        mru, lru, bip_lo, bip_hi = rates
        if mru <= lru:
            # Recency-friendly phase: MRU unless light bimodal beats it.
            return 2 if bip_lo < mru else 0
        # Thrash phase: LRU-lean, unless half-and-half bimodal wins.
        return 3 if bip_hi < lru else 1

    def _maybe_epoch(self) -> None:
        self._since_epoch += 1
        if self._since_epoch >= self.epoch:
            self._chosen = self._analyse()
            self._leader_misses = [0] * len(self._CANDIDATES)
            self._leader_reqs = [1] * len(self._CANDIDATES)
            self._since_epoch = 0

    def _group(self, key: int) -> int:
        return hash(key) % self._GROUPS

    def _on_access(self, key: int, size: int) -> None:
        g = self._group(key)
        if g < len(self._CANDIDATES):
            self._leader_reqs[g] += 1
            if key not in self.index:
                self._leader_misses[g] += 1
        self._maybe_epoch()

    def _insert_position(self, key: int, size: int) -> int:
        g = self._group(key)
        p_mru = (
            self._CANDIDATES[g]
            if g < len(self._CANDIDATES)
            else self._CANDIDATES[self._chosen]
        )
        return MRU_POS if self.rng.random() < p_mru else LRU_POS
