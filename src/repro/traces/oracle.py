"""Oracle LRU replay: event-level ZRO / P-ZRO / A-ZRO / A-P-ZRO labelling.

Definitions, operationalised from §1–§2 of the paper (all relative to a
*reference LRU replay* at a given cache size):

* **ZRO event** — a miss whose inserted object is later evicted without a
  single hit ("will not be accessed as long as they appear in the cache").
* **P-ZRO event** — a hit after which the object receives no further hit
  before being evicted ("the hit object may immediately become a ZRO").
* **A-ZRO event** — a ZRO event whose object *is* hit in the cache at some
  later point of the trace (a ZRO is "not a fixed property"; the object
  re-enters and proves reusable).
* **A-P-ZRO event** — the same degradation for P-ZRO events.

The labelling requires knowing the future, so it runs as a two-phase oracle:
phase 1 replays LRU recording, for every insertion and every hit, whether
another hit happens before the corresponding eviction; phase 2 back-fills
the A- variants from each key's later in-cache hits.

:func:`treated_replay` then re-runs LRU while *treating* a chosen subset of
the labelled events (inserting ZROs at the LRU position / demoting P-ZROs
to the LRU position on their hit) — the counterfactual behind Figure 1's
slashed bars and Figure 3's fractional-treatment curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.cache.base import LRU_POS, MRU_POS, QueueCache
from repro.cache.queue import Node
from repro.sim.request import Request, Trace

__all__ = ["OracleLabels", "label_events", "treated_replay"]


@dataclass
class OracleLabels:
    """Event-index label sets from a reference LRU replay.

    All sets contain *trace indices*; ``miss_events`` / ``hit_events`` are
    total counts so proportions can be formed without rescanning.
    """

    cache_bytes: int
    miss_events: int = 0
    hit_events: int = 0
    zro: Set[int] = field(default_factory=set)
    pzro: Set[int] = field(default_factory=set)
    a_zro: Set[int] = field(default_factory=set)
    a_pzro: Set[int] = field(default_factory=set)
    miss_ratio: float = 0.0

    # -- the Figure 1 proportions -------------------------------------------------
    @property
    def zro_share_of_misses(self) -> float:
        return len(self.zro) / self.miss_events if self.miss_events else 0.0

    @property
    def pzro_share_of_hits(self) -> float:
        return len(self.pzro) / self.hit_events if self.hit_events else 0.0

    @property
    def azro_share_of_zros(self) -> float:
        return len(self.a_zro) / len(self.zro) if self.zro else 0.0

    @property
    def apzro_share_of_pzros(self) -> float:
        return len(self.a_pzro) / len(self.pzro) if self.pzro else 0.0


class _TrackingLRU(QueueCache):
    """LRU that records insertion/last-hit events for oracle labelling.

    Optional treatment sets let the labeller run *on top of* an already
    treated replay — the combined-treatment counterfactual needs P-ZRO
    labels that are valid under ZRO treatment (§2.2's interaction effect:
    "changing the insertion positions of the ZROs or P-ZROs will change the
    subsequent ZROs and P-ZROs").
    """

    name = "oracle-LRU"

    def __init__(
        self,
        capacity: int,
        labels: OracleLabels,
        treat_miss: Optional[Set[int]] = None,
        treat_hit: Optional[Set[int]] = None,
    ):
        super().__init__(capacity)
        self.labels = labels
        self.treat_miss = treat_miss or set()
        self.treat_hit = treat_hit or set()
        self._now = -1  # trace index of the request being processed

    def process(self, idx: int, req: Request) -> bool:
        self._now = idx
        return self.request(req)

    def _insert_position(self, key: int, size: int) -> int:
        return LRU_POS if self._now in self.treat_miss else MRU_POS

    def _on_insert(self, node: Node) -> None:
        # data = [insert_event_idx, last_hit_event_idx or None]
        node.data = [self._now, None]

    def _on_hit(self, node: Node) -> int:
        rec = node.data
        if rec is not None:
            rec[1] = self._now
        return LRU_POS if self._now in self.treat_hit else MRU_POS

    def _finalize(self, node: Node) -> None:
        rec = node.data
        if rec is None:
            return
        insert_idx, last_hit_idx = rec
        if last_hit_idx is None:
            self.labels.zro.add(insert_idx)
        else:
            self.labels.pzro.add(last_hit_idx)

    def _on_evict(self, node: Node) -> None:
        self._finalize(node)

    def drain(self) -> None:
        """End of trace: objects still resident never got evicted, so their
        episodes are *not* ZRO/P-ZRO — the paper's definition requires the
        zero-reuse tenure to complete.  Nothing to record."""


def label_events(
    trace: Trace,
    cache_bytes: int,
    treat_miss: Optional[Set[int]] = None,
    treat_hit: Optional[Set[int]] = None,
) -> OracleLabels:
    """Replay LRU at ``cache_bytes`` and label all ZRO/P-ZRO events.

    With ``treat_miss`` / ``treat_hit``, the replay applies the given
    treatments while labelling — used to derive labels valid *under* a prior
    treatment (the combined-treatment construction of Figures 1 and 3).
    """
    labels = OracleLabels(cache_bytes=cache_bytes)
    lru = _TrackingLRU(cache_bytes, labels, treat_miss=treat_miss, treat_hit=treat_hit)
    hit_flags: List[bool] = []
    for idx in range(len(trace)):
        hit = lru.process(idx, trace[idx])
        hit_flags.append(hit)
        if hit:
            labels.hit_events += 1
        else:
            labels.miss_events += 1
    lru.drain()
    labels.miss_ratio = labels.miss_events / max(len(trace), 1)

    # Phase 2: A-variants — does the event's key get an in-cache hit later?
    # For every key, collect its hit indices; an event degrades to the A-
    # variant if any hit of the same key occurs strictly after the event.
    last_hit_of_key: dict = {}
    for idx in range(len(trace) - 1, -1, -1):
        req = trace[idx]
        later = last_hit_of_key.get(req.key)
        if later is not None:
            if idx in labels.zro:
                labels.a_zro.add(idx)
            elif idx in labels.pzro:
                labels.a_pzro.add(idx)
        if hit_flags[idx]:
            last_hit_of_key[req.key] = idx
    return labels


class _TreatedLRU(QueueCache):
    """LRU with oracle treatment: selected miss events insert at the LRU
    position; selected hit events demote to the LRU position instead of
    promoting."""

    name = "treated-LRU"

    def __init__(self, capacity: int, treat_miss: Set[int], treat_hit: Set[int]):
        super().__init__(capacity)
        self.treat_miss = treat_miss
        self.treat_hit = treat_hit
        self._now = -1

    def process(self, idx: int, req: Request) -> bool:
        self._now = idx
        return self.request(req)

    def _insert_position(self, key: int, size: int) -> int:
        return LRU_POS if self._now in self.treat_miss else MRU_POS

    def _on_hit(self, node: Node) -> int:
        return LRU_POS if self._now in self.treat_hit else MRU_POS


def treated_replay(
    trace: Trace,
    cache_bytes: int,
    labels: OracleLabels,
    treat_zro: bool = True,
    treat_pzro: bool = True,
    fraction: float = 1.0,
) -> float:
    """Miss ratio of LRU when (a fraction of) labelled events are treated.

    ``fraction`` selects the first ``fraction`` of each label set *in trace
    order* — Figure 3's x-axis ("percentages … at the top of the access
    sequence").  Returns the resulting miss ratio.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")

    def take(events: Set[int]) -> Set[int]:
        if fraction >= 1.0:
            return set(events)
        ordered = sorted(events)
        return set(ordered[: int(len(ordered) * fraction)])

    treat_miss = take(labels.zro) if treat_zro else set()
    if treat_zro and treat_pzro:
        # Combined treatment: P-ZRO labels from the *reference* replay go
        # stale once ZROs are re-routed (the §2.2 interaction), so re-label
        # hits under the ZRO treatment before treating them.
        relabelled = label_events(trace, cache_bytes, treat_miss=treat_miss)
        treat_hit = take(relabelled.pzro)
    elif treat_pzro:
        treat_hit = take(labels.pzro)
    else:
        treat_hit = set()
    lru = _TreatedLRU(cache_bytes, treat_miss, treat_hit)
    misses = 0
    for idx in range(len(trace)):
        if not lru.process(idx, trace[idx]):
            misses += 1
    return misses / max(len(trace), 1)
