"""History (shadow) lists ``H_m`` and ``H_l`` — §3.2 of the paper.

Each list records **metadata only** of objects evicted from the real cache,
split by where they had last been placed: ``H_m`` for MRU-position
placements, ``H_l`` for LRU-position placements.  Logically each list's
capacity is *half the real cache* (in bytes of described objects); entries
age out FIFO.

Every entry carries the evicted object's **hit token** (§2.3, §5.1: TDC's
inode records whether the object was hit while resident).  The token is what
lets a ghost hit in ``H_m`` distinguish the two episode kinds the paper
cares about:

* token ``0`` — the tenure ended with *zero* hits: a confirmed **ZRO
  episode** (inserted at MRU, traversed the cache unused);
* token ``1`` — the object was hit exactly once and died right after: that
  hit was a **P-ZRO event** (the single-hit-then-die signature);
* token ``>= 2`` — a multi-hit tenure: the object earns its keep.

Entries also carry the eviction clock so a ghost hit can measure the
object's *return gap* against the cache lifetime.

Semantics used by Algorithm 1:

* ``ADD(victim)`` — append at the MRU end of the list, evicting the list's
  own LRU-end entries if the byte budget is exceeded (Algorithm 1, L34-38);
* a *ghost hit* — a missing object found in a list — triggers a weight
  update and deletes the entry (L6-11).

The production deployment note (§5.1) says each entry stores the object key
(a string) and size (a long); :meth:`metadata_bytes` charges accordingly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

__all__ = ["HistoryList"]


class HistoryList:
    """A FIFO ghost list with a byte budget.

    Parameters
    ----------
    capacity:
        Byte budget — the summed sizes of the *described* objects (the list
        itself only stores metadata; the budget bounds how far back in
        eviction history the list can see, mirroring "half the real cache").
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"history capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.bytes = 0
        # key -> (size, hits, flag, time), in FIFO order (oldest first).
        # ``hits`` is the evicted residency's hit count (the hit token as a
        # count: 0 / 1 / >= 2 are the three episode kinds above), ``flag``
        # carries the episode kind (see repro.core.scip: NORMAL /
        # DENIED / DEMOTED) and ``time`` the eviction clock, so a ghost hit
        # can resume the object's state and measure its return gap.
        self._entries: "OrderedDict[int, Tuple[int, int, int, int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def add(
        self, key: int, size: int, hits: int = 0, flag: int = 0, time: int = 0
    ) -> None:
        """Record an evicted object (paper's ``ADD``): append at the MRU end,
        trimming the LRU end to the byte budget first.  Re-adding an existing
        key refreshes it (moves to MRU end, updates size and hit count)."""
        if key in self._entries:
            self.bytes -= self._entries.pop(key)[0]
        while self._entries and self.bytes + size > self.capacity:
            _, (old_size, _, _, _) = self._entries.popitem(last=False)
            self.bytes -= old_size
        if size <= self.capacity:
            self._entries[key] = (size, hits, flag, time)
            self.bytes += size

    def delete(self, key: int) -> bool:
        """Paper's ``DELETE``: drop all information for ``key``.  Returns
        whether the key was present (i.e. whether this was a ghost hit)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.bytes -= entry[0]
        return True

    def pop(self, key: int) -> Optional[Tuple[int, int, int, int]]:
        """Ghost lookup returning the entry ``(size, hits, flag, time)``
        and deleting it, or ``None`` when absent.  SCIP's miss path uses this
        to read the hit count, episode kind and eviction time of the ended
        episode."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self.bytes -= entry[0]
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.bytes = 0

    def keys(self) -> list:
        """FIFO-ordered keys (oldest first); diagnostics only."""
        return list(self._entries)

    def metadata_bytes(self) -> int:
        """Real memory the list costs: ~32 B per entry (key string + long)."""
        return 32 * len(self._entries)

    def check_invariants(self) -> None:
        assert self.bytes == sum(s for s, _, _, _ in self._entries.values()), (
            "byte accounting drift"
        )
        assert self.bytes <= self.capacity or not self._entries, "budget overflow"
