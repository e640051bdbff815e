"""SCIP (and ASC-IP) as plug-in enhancers for replacement algorithms — §4.

The paper argues SCIP composes with existing victim-selection policies:
*"users can utilize SCIP to replace their insertion and promotion policies"*
(passive policies) and *"SCIP can be used as a complement to a machine-
learning model to determine the insertion position"* (active policies).
Figure 12 demonstrates it on LRU-K and LRB, with ASC-IP enhancement as the
reference, and this module provides exactly those four hybrids:

* :class:`SCIPLRUK` — LRU-K victim selection under SCIP placement.  LRU-K
  prefers victims with infinite backward K-distance, tie-broken by queue
  order — so SCIP's position control steers exactly the tie-breaking order
  those candidates are examined in.
* :class:`SCIPLRB` — the :class:`~repro.cache.lrb.RelaxedBeladyLearner`
  victim model under SCIP placement; SCIP "follows the memory window of
  LRB" in that both learn from the same bounded past.
* :class:`ASCIPLRUK` / :class:`ASCIPLRB` — the same hosts with ASC-IP's
  size-threshold insertion, the paper's reference enhancer.

Both kernels read one set of extension-point names (a victim chooser, an
access callback, insert/evict callbacks), so each host's are written once:
the SCIP hybrids ride SCIP's kernel with them, the ASC-IP ones the
:class:`~repro.cache.base.QueueCache` kernel.

SCIP cannot be composed with multi-chain structures (ARC, S4LRU) — the
paper flags this as future work, and :func:`enhance` refuses those hosts.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Optional

from repro.cache.ascip import ASCIPCache
from repro.cache.lrb import LRBCache, RelaxedBeladyLearner
from repro.cache.queue import Node
from repro.core.scip import SCIPCache

__all__ = ["SCIPLRUK", "SCIPLRB", "ASCIPLRUK", "ASCIPLRB", "enhance"]


class _LRUKVictimMixin:
    """LRU-K victim selection over a recency queue.

    Access-time histories live in a side dict (``node.data`` belongs to the
    placement policy), filled by the access callback, retained past
    eviction as LRU-K prescribes and pruned periodically.
    """

    def _init_lruk(self, k: int = 2, sample: int = 16) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.k = k
        self.sample = sample
        self._atimes: Dict[int, deque] = {}

    def _on_access(self, key: int, size: int) -> None:
        hist = self._atimes.get(key)
        if hist is None:
            hist = deque(maxlen=self.k)
            self._atimes[key] = hist
        hist.append(self.clock)
        # Bound retained history on churny traces.
        if len(self._atimes) > 4 * max(len(self.index), 1) + 100_000:
            resident = self.index
            self._atimes = {k_: v for k_, v in self._atimes.items() if k_ in resident}

    def _kdist(self, key: int) -> float:
        hist = self._atimes.get(key)
        if hist is None or len(hist) < self.k:
            return math.inf
        return self.clock - hist[0]

    def _choose_victim(self) -> Node:
        best: Optional[Node] = None
        best_d = -1.0
        for i, node in enumerate(self.queue.iter_lru()):
            if i >= self.sample:
                break
            d = self._kdist(node.key)
            if d == math.inf:
                return node
            if d > best_d:
                best_d = d
                best = node
        assert best is not None
        return best


class SCIPLRUK(_LRUKVictimMixin, SCIPCache):
    """LRU-K victim selection + SCIP insertion/promotion (Figure 12)."""

    name = "LRU-K-SCIP"

    def __init__(self, capacity: int, k: int = 2, sample: int = 16, **scip_kwargs):
        super().__init__(capacity, **scip_kwargs)
        self._init_lruk(k=k, sample=sample)

    def metadata_bytes(self) -> int:
        return super().metadata_bytes() + (8 * self.k + 16) * len(self._atimes)


class ASCIPLRUK(_LRUKVictimMixin, ASCIPCache):
    """LRU-K victim selection + ASC-IP insertion (Figure 12 reference)."""

    name = "LRU-K-ASCIP"

    def __init__(self, capacity: int, k: int = 2, sample: int = 16, **ascip_kwargs):
        super().__init__(capacity, **ascip_kwargs)
        self._init_lruk(k=k, sample=sample)


class SCIPLRB(SCIPCache):
    """LRB victim model + SCIP insertion/promotion (Figure 12)."""

    name = "LRB-SCIP"

    def __init__(self, capacity: int, learner_kwargs: Optional[dict] = None, **scip_kwargs):
        super().__init__(capacity, **scip_kwargs)
        self.learner = RelaxedBeladyLearner(**(learner_kwargs or {}))

    _on_access = LRBCache._on_access
    _choose_victim = LRBCache._choose_victim
    _on_insert = LRBCache._on_insert
    _on_evict = LRBCache._on_evict

    def metadata_bytes(self) -> int:
        return super().metadata_bytes() + self.learner.metadata_bytes()


class ASCIPLRB(LRBCache, ASCIPCache):
    """LRB victim model + ASC-IP insertion (Figure 12 reference)."""

    name = "LRB-ASCIP"

    def __init__(self, capacity: int, learner_kwargs: Optional[dict] = None, **ascip_kwargs):
        ASCIPCache.__init__(self, capacity, **ascip_kwargs)
        self.learner = RelaxedBeladyLearner(**(learner_kwargs or {}))

    def _on_evict(self, node: Node) -> None:
        ASCIPCache._on_evict(self, node)  # the threshold learns from the victim too
        LRBCache._on_evict(self, node)

    # the footprint of ASC-IP alone: the learner is not counted
    metadata_bytes = ASCIPCache.metadata_bytes


#: Hosts SCIP can enhance, by name (Figure 12's subjects).
_ENHANCEABLE = {
    "LRU-K": SCIPLRUK,
    "LRB": SCIPLRB,
}

#: Multi-chain hosts the paper explicitly defers to future work (§4).
_MULTI_CHAIN = {"ARC", "S4LRU", "SLRU", "CACHEUS", "SS-LRU"}


def enhance(host_name: str, capacity: int, **kwargs):
    """Build the SCIP-enhanced variant of a named host policy.

    Raises ``ValueError`` for multi-chain hosts, which SCIP does not
    support ("SCIP cannot be well adapted to multi-chain structure
    algorithms, but this is a focus of our future work" — §4).
    """
    if host_name in _MULTI_CHAIN:
        raise ValueError(
            f"SCIP cannot enhance multi-chain policy {host_name!r} (paper §4: future work)"
        )
    try:
        cls = _ENHANCEABLE[host_name]
    except KeyError:
        raise ValueError(
            f"no SCIP enhancement registered for {host_name!r}; "
            f"available: {sorted(_ENHANCEABLE)}"
        ) from None
    return cls(capacity, **kwargs)
