"""ASC-IP — Adaptive Size-aware Cache Insertion Policy (Wang et al.,
ICCD'22), the paper's direct predecessor and strongest insertion comparator.

ASC-IP observes that, in CDN workloads, zero-reuse objects (ZROs) skew
large.  It maintains a *size threshold* ``T``: missing objects with
``size >= T`` are suspected ZROs and inserted at the LRU position (via a
bimodal gate that still gives suspects an occasional MRU chance, reconciling
misjudgments); smaller objects go to MRU.  Hits always promote to the MRU
position — ASC-IP has **no** promotion policy, which is exactly the P-ZRO
blind spot SCIP fixes (§1, §2.3).

``T`` adapts from the two size populations the eviction stream reveals —
the sizes of victims that died without a hit (suspected ZROs) and the sizes
of victims that were reused — tracked as exponential moving averages; ``T``
sits at their geometric midpoint.  This is the strongest form the original's
size heuristic can take: its accuracy is bounded by how separable the two
size distributions actually are, which is precisely the limitation the SCIP
paper holds against it (§2.3 — size favours the side with more judgments,
and normal-sized recurring ZROs are invisible to any size threshold).
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.cache.base import LRU_POS, MRU_POS, QueueCache
from repro.cache.queue import Node

__all__ = ["ASCIPCache"]


class ASCIPCache(QueueCache):
    """Adaptive size-aware insertion over an LRU queue.

    Parameters
    ----------
    init_threshold:
        Starting size threshold in bytes (default 64 KiB — near the CDN
        mean object size, as in the original).
    smoothing:
        EWMA factor for the dead/reused size-population means.
    mru_chance:
        Bimodal escape probability: a suspected ZRO still gets an MRU
        insertion with this probability.
    """

    name = "ASC-IP"

    _T_MIN = 256          # 256 B floor
    _T_MAX = 1 << 33      # 8 GiB ceiling

    def __init__(
        self,
        capacity: int,
        init_threshold: int = 64 * 1024,
        smoothing: float = 0.02,
        mru_chance: float = 1 / 32,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(capacity)
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.threshold = float(init_threshold)
        self.smoothing = smoothing
        self.mru_chance = mru_chance
        self.rng = rng or random.Random(0)
        # Log-size EWMAs of the two victim populations (geometric means).
        self._log_dead = math.log(init_threshold * 2.0)
        self._log_live = math.log(init_threshold / 2.0)

    def _insert_position(self, key: int, size: int) -> int:
        if size >= self.threshold:
            # Suspected ZRO; bimodal gate reconciles misjudgment.
            return MRU_POS if self.rng.random() < self.mru_chance else LRU_POS
        return MRU_POS

    def _on_evict(self, node: Node) -> None:
        r = self.smoothing
        logsz = math.log(max(node.size, 1))
        if not node.hit_token:
            self._log_dead += r * (logsz - self._log_dead)
        else:
            self._log_live += r * (logsz - self._log_live)
        # Threshold at the geometric midpoint of the two populations; if
        # they invert (reused objects are the larger ones), denial is
        # pointless and the threshold saturates high.
        if self._log_dead > self._log_live:
            mid = (self._log_dead + self._log_live) / 2.0
            self.threshold = min(max(math.exp(mid), self._T_MIN), self._T_MAX)
        else:
            self.threshold = self._T_MAX

    def metadata_bytes(self) -> int:
        return 110 * len(self) + 32  # threshold + two EWMAs
