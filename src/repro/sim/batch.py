"""Bounded-memory replay of trace files — the paper-scale path.

One driver (:func:`batch_replay` / :func:`simulate_batch`, and
:func:`repro.sim.parallel.mrc_sweep` above them) streams
**structure-of-arrays chunks** (the shape
:meth:`repro.traces.binfmt.BinTraceReader.iter_chunks` yields) through *any*
registry policy: each chunk's columns go to the policy's
:meth:`~repro.cache.base.CachePolicy.replay_columns`, so memory is one chunk
plus the resident set at any trace length and no ``Request`` list is ever
built.  Only a policy that declares it reads the future
(:attr:`~repro.cache.base.CachePolicy.needs_future`) is refused.

For two names the driver picks a **dedicated core** instead
(:data:`BATCH_POLICIES`; :func:`batch_supported` answers "has one") — an
optimisation, never a different answer: the equivalence harness in
``tests/sim/test_batch_equivalence.py`` pins every hit/miss and the final
resident set against the per-request path.  A dedicated core stays only
where the benchmark ledger replays it (``replay-lru-stream``, ``replay-scip``
and the 100 M-request run): LRU's is the one array re-implementation of a
registry policy in the repo and takes the ndarray columns as they come
(``process_chunk(keys, sizes, out)``); SCIP's entry *is* the registry
:class:`~repro.core.scip.SCIPCache`, whose ``replay_columns`` runs SCIP's one
kernel over the policy's own queue, history lists, bandit and RNG — its tail
insertions (denials, demotions) and data-dependent RNG draws break the
monotone boundary the array model needs.  Every other name, FIFO, CLOCK and
SIEVE included, streams through its own ``replay_columns``.
``docs/trace_format.md`` has the measured break-even between the LRU core
and the policy's own loop.

How the LRU fast path works (the *slot model*)
----------------------------------------------
Assign request ``i`` of the run the global **slot id** ``t0 + i``.  Under
byte-LRU with consistent per-key sizes, every hit or admitted miss moves
its key to its request's slot, and the resident set is always the maximal
*suffix* of slots whose cumulative bytes fit the capacity.  Hence a single
**boundary** ``B`` — the highest evicted slot — fully describes the cache:

* a request **hits** iff its key's current slot is ``> B``;
* ``B`` is monotonically nondecreasing (eviction order = slot order).

That makes the replay loop trivial: per chunk we precompute each
request's previous slot (one ``argsort`` over keys for within-chunk
chains, a vectorised hash-map probe for cross-chunk first occurrences),
then scan requests in order — a hit is a single integer comparison
(``previous slot > B``), and only misses do real work (advance ``B`` over
the slot array, counting an eviction per live slot consumed, a total
bounded by the slots created).  No per-request allocation, no linked
lists, no hashing in the loop.

Traces whose keys change size between requests (the rich engine's
size-update semantics) are detected per chunk and **spill**: the batch
state is migrated — in recency order — into the real registry policy,
which finishes the replay with reference semantics, fed the same columns.
Memory stays bounded at any trace length: slot arrays are compacted (live
slots renumbered, key map rebuilt from live slots only) as the boundary
advances.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.cache.base import CacheStats
from repro.cache.lru import LRUCache
from repro.cache.registry import make_policy
from repro.core.scip import SCIPCache
from repro.hashing import splitmix64_array
from repro.sim.engine import SimResult
from repro.sim.metrics import MetricsCollector, stats_mark
from repro.sim.request import Trace
from repro.traces.binfmt import BinTraceReader

__all__ = [
    "Int64Map",
    "BatchLRU",
    "BATCH_POLICIES",
    "batch_supported",
    "make_batch_policy",
    "batch_replay",
    "iter_source_chunks",
    "simulate_batch",
]

_INF = 1 << 62
_U64 = np.uint64

Chunk = Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]
ChunkSource = Union[str, Path, BinTraceReader, Trace, Iterable[Chunk]]


# ---------------------------------------------------------------------------
# Vectorised int64 -> int64 open-addressing hash map
# ---------------------------------------------------------------------------
class Int64Map:
    """Flat open-addressing hash map with vectorised bulk probes.

    Linear probing over power-of-two tables, splitmix64 hashing; both
    :meth:`get_many` and :meth:`put_many` resolve whole key arrays in a
    handful of numpy rounds (each round settles every probe that didn't
    collide).  ``put_many`` requires the keys *within one call* to be
    unique — the batch engine always inserts per-key aggregates.
    """

    def __init__(self, capacity: int = 1 << 12):
        cap = 8
        while cap < max(capacity, 8) * 2:
            cap <<= 1
        self._cap = cap
        self._keys = np.zeros(cap, np.int64)
        self._vals = np.zeros(cap, np.int64)
        self._full = np.zeros(cap, bool)
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        h = splitmix64_array(keys.view(_U64)) & _U64(self._cap - 1)
        return h.astype(np.int64)

    def get_many(self, keys) -> np.ndarray:
        """Values for ``keys`` (-1 where absent)."""
        keys = np.ascontiguousarray(keys, np.int64)
        out = np.full(len(keys), -1, np.int64)
        if len(keys) == 0 or self.count == 0:
            return out
        idx = self._slots(keys)
        pending = np.arange(len(keys))
        mask = self._cap - 1
        while pending.size:
            sl = idx[pending]
            occ = self._full[sl]
            match = occ.copy()
            if match.any():
                match[occ] = self._keys[sl[occ]] == keys[pending[occ]]
                out[pending[match]] = self._vals[sl[match]]
            cont = occ & ~match
            pending = pending[cont]
            idx[pending] = (idx[pending] + 1) & mask
        return out

    def put_many(self, keys, vals) -> None:
        """Insert/update ``keys`` (unique within the call) -> ``vals``."""
        keys = np.ascontiguousarray(keys, np.int64)
        vals = np.ascontiguousarray(vals, np.int64)
        n = len(keys)
        if n == 0:
            return
        if (self.count + n) * 5 >= self._cap * 3:  # keep load < 0.6
            self._grow(self.count + n)
        idx = self._slots(keys)
        pending = np.arange(n)
        mask = self._cap - 1
        while pending.size:
            sl = idx[pending]
            occ = self._full[sl]
            match = occ.copy()
            if match.any():
                match[occ] = self._keys[sl[occ]] == keys[pending[occ]]
                self._vals[sl[match]] = vals[pending[match]]
            losers = pending[:0]
            emp = ~occ
            if emp.any():
                cand = pending[emp]
                csl = sl[emp]
                # Several pending keys may race for one empty slot; a
                # reversed scatter makes the *first* candidate's write land
                # last (duplicate-index assignment keeps the final write),
                # then a gather identifies the winners — no sort needed.
                self._keys[csl[::-1]] = keys[cand[::-1]]
                self._vals[csl[::-1]] = vals[cand[::-1]]
                won = self._keys[csl] == keys[cand]
                self._full[csl] = True
                self.count += int(np.count_nonzero(won))
                losers = cand[~won]
            adv = pending[occ & ~match]
            idx[adv] = (idx[adv] + 1) & mask
            pending = np.concatenate((adv, losers)) if losers.size else adv

    def exchange_many(self, keys, vals) -> np.ndarray:
        """Fused probe-and-update: write ``keys -> vals``, return the prior
        values (-1 where absent).  One table traversal instead of a
        ``get_many`` + ``put_many`` pair over the same keys."""
        keys = np.ascontiguousarray(keys, np.int64)
        vals = np.ascontiguousarray(vals, np.int64)
        n = len(keys)
        out = np.full(n, -1, np.int64)
        if n == 0:
            return out
        if (self.count + n) * 5 >= self._cap * 3:  # keep load < 0.6
            self._grow(self.count + n)
        idx = self._slots(keys)
        pending = np.arange(n)
        mask = self._cap - 1
        while pending.size:
            sl = idx[pending]
            occ = self._full[sl]
            match = occ.copy()
            if match.any():
                match[occ] = self._keys[sl[occ]] == keys[pending[occ]]
                hit = pending[match]
                out[hit] = self._vals[sl[match]]
                self._vals[sl[match]] = vals[hit]
            losers = pending[:0]
            emp = ~occ
            if emp.any():
                cand = pending[emp]
                csl = sl[emp]
                self._keys[csl[::-1]] = keys[cand[::-1]]
                self._vals[csl[::-1]] = vals[cand[::-1]]
                won = self._keys[csl] == keys[cand]
                self._full[csl] = True
                self.count += int(np.count_nonzero(won))
                losers = cand[~won]
            adv = pending[occ & ~match]
            idx[adv] = (idx[adv] + 1) & mask
            pending = np.concatenate((adv, losers)) if losers.size else adv
        return out

    def _grow(self, need: int) -> None:
        old_keys = self._keys[self._full].copy()
        old_vals = self._vals[self._full].copy()
        cap = self._cap
        while need * 5 >= cap * 3:
            cap <<= 1
        self._cap = cap
        self._keys = np.zeros(cap, np.int64)
        self._vals = np.zeros(cap, np.int64)
        self._full = np.zeros(cap, bool)
        self.count = 0
        self.put_many(old_keys, old_vals)

    # scalar conveniences (tests / diagnostics)
    def get(self, key: int, default: int = -1) -> int:
        v = int(self.get_many(np.asarray([key]))[0])
        return default if v == -1 else v

    def put(self, key: int, val: int) -> None:
        self.put_many(np.asarray([key]), np.asarray([val]))


# ---------------------------------------------------------------------------
# LRU: the slot-model vectorised core
# ---------------------------------------------------------------------------
_REP_HASH_BITS = 21
_REP_FULLSORT_NUM = 3  # fall back to the full sort when repeats > 3/4


def _group_occurrences(keys, sizes, nb):
    """Group a chunk's requests by key, preserving request order.

    Returns ``(fidx, lidx, pred, succ)``:

    * ``fidx`` / ``lidx`` — request index of each distinct key's first /
      last occurrence (one entry per distinct key, unordered);
    * ``pred`` / ``succ`` — within-chunk chain edges: ``succ[j]`` is a
      repeat occurrence and ``pred[j]`` the same key's immediately
      preceding occurrence (non-bypassed keys only);

    or ``None`` when a key changes size within the chunk (spill signal).

    The stable argsort dominates chunk preprocessing, so keys that
    provably occur once are pre-filtered with a hashed occupancy count
    and skip the sort: a key whose hash bucket holds a single occurrence
    cannot repeat.  Collisions only add stray singletons to the sorted
    subset — never a correctness hazard — and chunks that are mostly
    repeats fall back to the plain full sort.
    """
    m = len(keys)
    hb = (
        (keys.view(_U64) * _U64(0x9E3779B97F4A7C15))
        >> _U64(64 - _REP_HASH_BITS)
    ).astype(np.intp)
    counts = np.bincount(hb, minlength=1 << _REP_HASH_BITS)
    rep = counts[hb] >= 2
    nrep = int(np.count_nonzero(rep))
    if nrep * 4 >= m * _REP_FULLSORT_NUM:
        singles = None
        order = np.argsort(keys, kind="stable")
    else:
        sub = np.flatnonzero(rep)
        singles = np.flatnonzero(~rep)
        order = sub[np.argsort(keys[sub], kind="stable")]
    ns = len(order)
    ks = keys[order]
    same = np.zeros(ns, bool)
    if ns > 1:
        same[1:] = ks[1:] == ks[:-1]
    cp = np.flatnonzero(same)
    if cp.size:
        szs = sizes[order]
        if not bool((szs[cp] == szs[cp - 1]).all()):
            return None
    gfirst = order[np.flatnonzero(~same)]
    last_pos = np.ones(ns, bool)
    if ns > 1:
        last_pos[:-1] = ~same[1:]
    glast = order[last_pos]
    chsel = cp[nb[order[cp]]]  # bypass status is per-key uniform
    pred = order[chsel - 1]
    succ = order[chsel]
    if singles is None:
        return gfirst, glast, pred, succ
    return np.concatenate((singles, gfirst)), np.concatenate((singles, glast)), pred, succ


class BatchLRU:
    """Vectorised byte-LRU over the slot model (bit-exact with
    :class:`repro.cache.lru.LRUCache`)."""

    name = "LRU"

    #: Compact when this many dead slots accumulate in the window.
    _COMPACT_SLACK = 1 << 18

    def __init__(self, capacity: int):
        capacity = int(capacity)
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self.clock = 0
        self.used = 0
        self.resident = 0
        self.B = -1  # highest evicted slot; residents live strictly above
        self.base = 0  # absolute slot id of slot-array element 0
        self.next_slot = 0
        n0 = 1 << 12
        self.slot_key = np.zeros(n0, np.int64)
        self.slot_size = np.zeros(n0, np.int64)
        self.slot_next = np.full(n0, _INF, np.int64)
        self.map = Int64Map()
        self._policy = None  # set once a spill migrates state
        #: Structural maintenance counters (surfaced on ``SimResult.obs``).
        self.compactions = 0
        self.spills = 0

    # -- capacity management ------------------------------------------------
    def _ensure(self, length: int) -> None:
        cap = len(self.slot_key)
        if length <= cap:
            return
        new = max(cap * 2, length)
        for attr, fill in (("slot_key", 0), ("slot_size", 0), ("slot_next", _INF)):
            old = getattr(self, attr)
            arr = np.full(new, fill, np.int64)
            arr[: len(old)] = old
            setattr(self, attr, arr)

    def _live_rel(self) -> np.ndarray:
        """Array indices (relative to ``base``) of live slots, ascending =
        eviction order (oldest first)."""
        lo = max(self.B + 1 - self.base, 0)
        hi = self.next_slot - self.base
        live = (self.slot_size[lo:hi] > 0) & (self.slot_next[lo:hi] >= self.next_slot)
        return np.flatnonzero(live) + lo

    def _compact(self) -> None:
        """Renumber live slots to a fresh id range and rebuild the key map
        from live slots **only** (purging stale entries), keeping memory
        proportional to residents + one chunk at any trace length."""
        rel = self._live_rel()
        nlive = len(rel)
        assert nlive == self.resident, (nlive, self.resident)
        self.compactions += 1
        base2 = self.next_slot  # fresh ids stay globally monotone
        self._ensure(nlive)
        self.slot_key[:nlive] = self.slot_key[rel]
        self.slot_size[:nlive] = self.slot_size[rel]
        self.slot_next[:nlive] = _INF
        self.base = base2
        self.B = base2 - 1
        self.next_slot = base2 + nlive
        self.map = Int64Map(max(nlive * 2, 1 << 12))
        self.map.put_many(
            self.slot_key[:nlive], base2 + np.arange(nlive, dtype=np.int64)
        )

    # -- spill: inconsistent per-key sizes -> reference policy ---------------
    def _spill(self) -> None:
        self.spills += 1
        policy = LRUCache(self.capacity)
        # Before the first admission primes the policy's kernel from them.
        policy.stats = self.stats  # shared object: counters stay unified
        policy.clock = self.clock
        rel = self._live_rel()
        # Ascending slot order is oldest-first; admitting each in turn
        # rebuilds the exact recency order.
        for k, s in zip(self.slot_key[rel].tolist(), self.slot_size[rel].tolist()):
            policy.import_resident(k, s)
        assert policy.used == self.used, (policy.used, self.used)
        self._policy = policy
        self.slot_key = self.slot_size = self.slot_next = None  # type: ignore[assignment]
        self.map = None  # type: ignore[assignment]

    def _replay_policy(self, keys, sizes, out) -> None:
        self._policy.replay_columns(keys.tolist(), sizes.tolist(), out)
        self.clock = self._policy.clock
        self.used = self._policy.used
        self.resident = len(self._policy)

    # -- main entry ----------------------------------------------------------
    def process_chunk(self, keys, sizes, out: Optional[list] = None) -> None:
        """Replay one chunk's ``keys``/``sizes`` columns (ndarrays).

        ``out``, when given, receives one boolean per request (hit=True) —
        the same decision stream :meth:`CachePolicy.replay_columns` produces.
        """
        keys = np.ascontiguousarray(keys, np.int64)
        sizes = np.ascontiguousarray(sizes, np.int64)
        m = len(keys)
        if len(sizes) != m:
            raise ValueError(f"keys/sizes length mismatch: {m} vs {len(sizes)}")
        if m == 0:
            return
        if self._policy is not None:
            return self._replay_policy(keys, sizes, out)

        C = self.capacity
        t0 = self.next_slot
        base = self.base
        self._ensure(t0 + m - base)
        off = t0 - base

        bypass = sizes > C
        nb = ~bypass
        n_byp = int(np.count_nonzero(bypass))

        # --- grouping: occurrences of each key, in request order ----------
        grouped = _group_occurrences(keys, sizes, nb)
        if grouped is None:
            # A key changes size within this chunk: reference semantics.
            self._spill()
            return self._replay_policy(keys, sizes, out)
        fidx, lidx, pred, succ = grouped

        # LRU re-slots every key to its last occurrence regardless of
        # hit/miss, so probe-old and write-new fuse into one traversal.
        # Bypassed keys are probed but never written (an oversized key
        # must not enter the map), falling back to a plain lookup.
        gsel = nb[fidx]
        prev = np.full(len(fidx), -1, np.int64)
        prev[gsel] = self.map.exchange_many(keys[fidx[gsel]], t0 + lidx[gsel])
        if not bool(gsel.all()):
            bsel = ~gsel
            prev[bsel] = self.map.get_many(keys[fidx[bsel]])
        valid = prev >= base  # below base => already evicted (or purged)
        if valid.any():
            stored = self.slot_size[prev[valid] - base]
            if not bool((stored == sizes[fidx[valid]]).all()):
                # Size changed across chunks (covers resident-but-oversized
                # requests too: stored <= C < new size).
                self._spill()
                return self._replay_policy(keys, sizes, out)

        # --- static slot state for this chunk -----------------------------
        self.slot_key[off : off + m] = keys
        self.slot_size[off : off + m] = np.where(nb, sizes, 0)
        self.slot_next[off : off + m] = _INF

        # Previous slot per request (-1 = no live prior residency known);
        # ``slot_next`` marks the slot a later request of the key moved to.
        fv = fidx[valid]
        pv = prev[valid]
        sel = nb[fv]
        pslot = np.full(m, -1, np.int64)
        pslot[fv[sel]] = pv[sel]
        self.slot_next[pv[sel] - base] = t0 + fv[sel]
        if len(succ):
            # each occurrence chains to the immediately previous one
            pslot[succ] = t0 + pred
            self.slot_next[off + pred] = t0 + succ

        # --- vectorised no-eviction fast path ------------------------------
        # With ``B`` frozen, classification is already exact: request ``i``
        # misses iff its key's slot is at-or-below the boundary.  When the
        # admitted bytes fit without evicting, the scalar loop would be
        # pure bookkeeping — fold it with array ops.
        B0 = self.B
        mi = np.flatnonzero((pslot <= B0) & nb)
        n_adm = len(mi)
        adm_bytes = int(sizes[mi].sum()) if n_adm else 0
        ev = 0
        if self.used + adm_bytes <= C:
            self.used += adm_bytes
            self.resident += n_adm
        else:
            # --- scalar hit/miss scan --------------------------------------
            # The key's current slot is ``pslot`` (every request re-slots
            # its key, so the chain value is exact), and a request hits iff
            # that slot is still above the boundary.  Hits cost one
            # comparison; only misses do eviction work, advancing ``B`` over
            # the slot window.
            cidx = np.flatnonzero(nb)
            ci_l = cidx.tolist()
            cp_l = pslot[cidx].tolist()
            cs_l = sizes[cidx].tolist()
            shift = max(B0 + 1, base)  # slots below are settled, never read
            lo = shift - base
            hi = off + m
            # Materialise only the window prefix ``B`` can actually reach:
            # consuming slots whose *guaranteed*-freed cumulative bytes
            # cover the worst-case byte demand (every candidate admitted)
            # provably satisfies the loop condition, so ``B`` never passes
            # that point.  Slight overflows of a huge resident window (the
            # common near-capacity case) then cost O(overflow), not
            # O(window), in list conversion.
            seg_sz = self.slot_size[lo:hi]
            freed = np.where((seg_sz > 0) & (self.slot_next[lo:hi] >= t0 + m), seg_sz, 0)
            need = self.used + int(sizes[cidx].sum()) - C
            wrel = min(int(np.searchsorted(np.cumsum(freed), need)) + 1, hi - lo)
            sz_l = seg_sz[:wrel].tolist()
            nx_l = self.slot_next[lo : lo + wrel].tolist()

            B = B0
            used = self.used
            resident = self.resident
            if out is None:
                # Counting-only variant: per-miss identity is never consumed
                # (no decision stream, no per-miss slot sizes to write), so
                # admissions are recovered from the used/resident deltas plus
                # freed bytes instead of materialising an index list.
                used0 = used
                res0 = resident
                fb = 0
                for i, p, s in zip(ci_l, cp_l, cs_l):
                    if p > B:
                        continue  # still resident above the boundary: hit
                    step = t0 + i
                    while used + s > C and resident:
                        B += 1
                        q = B - shift
                        sz = sz_l[q]
                        if sz > 0 and nx_l[q] > step:
                            used -= sz
                            fb += sz
                            resident -= 1
                            ev += 1
                    used += s
                    resident += 1
                n_adm = (resident - res0) + ev
                adm_bytes = (used - used0) + fb
            else:
                miss_idx: list = []
                miss_append = miss_idx.append
                for i, p, s in zip(ci_l, cp_l, cs_l):
                    if p > B:
                        continue  # still resident above the boundary: hit
                    step = t0 + i
                    while used + s > C and resident:
                        B += 1
                        q = B - shift
                        sz = sz_l[q]
                        if sz > 0 and nx_l[q] > step:
                            used -= sz
                            resident -= 1
                            ev += 1
                    used += s
                    resident += 1
                    miss_append(i)
                mi = np.asarray(miss_idx, np.int64)
                n_adm = len(mi)
                adm_bytes = int(sizes[mi].sum()) if n_adm else 0
            self.B = B
            self.used = used
            self.resident = resident

        # --- fold results --------------------------------------------------
        byp_bytes = int(sizes[bypass].sum()) if n_byp else 0
        total_bytes = int(sizes.sum())
        st = self.stats
        n_miss = n_adm + n_byp
        st.misses += n_miss
        st.hits += m - n_miss
        st.bytes_missed += adm_bytes + byp_bytes
        st.bytes_hit += total_bytes - adm_bytes - byp_bytes
        st.evictions += ev
        st.bypasses += n_byp
        self.clock += m
        self.next_slot = t0 + m

        if out is not None:
            hits_mask = nb
            if n_adm:
                hits_mask = nb.copy()
                hits_mask[mi] = False
            out.extend(hits_mask.tolist())

        # Amortised: a rebuild costs O(resident), so demand a multiple of
        # that in dead slots — the window stays <= 3x resident + chunk
        # while large resident sets (no-eviction replays) compact rarely.
        dead = (self.next_slot - self.base) - self.resident
        if dead > self._COMPACT_SLACK and dead > 2 * self.resident:
            self._compact()

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._policy) if self._policy is not None else self.resident

    def resident_keys(self) -> list:
        """Keys MRU -> LRU, matching :meth:`QueueCache.resident_keys`."""
        if self._policy is not None:
            return self._policy.resident_keys()
        return self.slot_key[self._live_rel()[::-1]].tolist()

    def metadata_bytes(self) -> int:
        return 110 * len(self)

    @property
    def spilled(self) -> bool:
        """Whether inconsistent sizes forced the reference-policy fallback."""
        return self._policy is not None


# ---------------------------------------------------------------------------
# Registry + engine entry points
# ---------------------------------------------------------------------------
#: Names the driver replays through a dedicated core rather than the
#: registry policy's own ``replay_columns`` — the two the benchmark ledger
#: replays from files.  SCIP's is the registry policy.  LRU keeps the slot
#: model although ``QueueCache.replay_columns`` exists: each wins on some
#: shape (docs/trace_format.md, break-even table).
BATCH_POLICIES = {"LRU": BatchLRU, "SCIP": SCIPCache}


def batch_supported(name: str) -> bool:
    """Whether this policy name has a dedicated core (any registry policy
    streams; these do it faster)."""
    return name in BATCH_POLICIES


def make_batch_policy(name: str, capacity: int):
    """What the driver replays ``name`` through: its dedicated core where
    :data:`BATCH_POLICIES` has one, else the registry policy itself."""
    cls = BATCH_POLICIES.get(name)
    return cls(capacity) if cls is not None else make_policy(name, capacity)


def _resolve(policy, cache_bytes: int):
    """``(core, feed)`` for a policy name (or a ready core / policy instance):
    ``feed(keys, sizes, out=None)`` is its bulk entry over ndarray columns —
    an array core's own, or a policy's ``replay_columns`` behind the two
    ``tolist()`` it needs."""
    core = make_batch_policy(policy, cache_bytes) if isinstance(policy, str) else policy
    if getattr(core, "needs_future", False):
        raise ValueError(
            f"policy {core.name!r} reads the future (needs_future): a streamed chunk "
            "carries no next-access annotation; use simulate() on a materialised trace"
        )
    feed = getattr(core, "process_chunk", None)
    if feed is None:
        replay_columns = core.replay_columns

        def feed(keys, sizes, out=None):
            replay_columns(keys.tolist(), sizes.tolist(), out)

    return core, feed


def iter_source_chunks(
    source: ChunkSource, chunk_size: int = 1 << 20
) -> Iterator[Chunk]:
    """Normalise any trace source into ``(times, keys, sizes)`` chunks.

    Accepts a binary trace path, an open :class:`BinTraceReader`, an
    in-memory :class:`Trace`, or any iterable already yielding chunk
    tuples (e.g. :func:`repro.traces.streaming.stream_chunks`).  No bulk
    entry reads the times, so a :class:`Trace` yields ``None`` in that slot.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if isinstance(source, (str, Path)):
        reader = BinTraceReader(source)
        try:
            yield from reader.iter_chunks(chunk_size)
        finally:
            reader.close()
    elif isinstance(source, BinTraceReader):
        yield from source.iter_chunks(chunk_size)
    elif isinstance(source, Trace):
        reqs = source.requests
        for lo in range(0, len(reqs), chunk_size):
            blk = reqs[lo : lo + chunk_size]
            n = len(blk)
            keys = np.fromiter((r.key for r in blk), np.int64, n)
            sizes = np.fromiter((r.size for r in blk), np.int64, n)
            yield None, keys, sizes
    else:
        yield from source


def _source_name(source: ChunkSource) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).stem
    if isinstance(source, BinTraceReader):
        return source.name
    if isinstance(source, Trace):
        return source.name
    return "stream"


def _as_int64_sizes(sizes: np.ndarray) -> np.ndarray:
    sizes = np.asarray(sizes)
    if sizes.dtype == np.uint64 and sizes.size and int(sizes.max()) > 2**63 - 1:
        raise ValueError("object sizes exceed int64 range")
    return sizes.astype(np.int64, copy=False)


def batch_replay(
    policy: str,
    source: ChunkSource,
    cache_bytes: int,
    chunk_size: int = 1 << 20,
    out: Optional[list] = None,
):
    """Replay a source through ``policy`` chunk by chunk; returns the
    finished core or policy (stats, resident set).  The decision-stream
    ``out`` matches :meth:`CachePolicy.replay` bit for bit."""
    core, feed = _resolve(policy, cache_bytes)
    for _times, keys, sizes in iter_source_chunks(source, chunk_size):
        feed(np.asarray(keys), _as_int64_sizes(sizes), out)
    return core


def simulate_batch(
    policy: str,
    source: ChunkSource,
    cache_bytes: int,
    warmup: int = 0,
    chunk_size: int = 1 << 20,
    trace_name: Optional[str] = None,
) -> SimResult:
    """File-streaming counterpart of :func:`repro.sim.engine.simulate`.

    Streams ``source`` through the named policy (any registry name; see
    :func:`make_batch_policy`) and returns the same :class:`SimResult`
    shape as the rich engine (aggregate metrics from stats deltas at the
    warm-up boundary, wall-clock TPS over the whole replay).  Memory stays
    bounded by chunk size + resident set regardless of trace length.
    """
    from repro.obs.metrics import MetricsRegistry

    core, feed = _resolve(policy, cache_bytes)
    seen = 0
    mark = stats_mark(core.stats)
    # The bulk entries never see individual requests, so per-event probes
    # are impossible by design — instead each chunk boundary folds the stats
    # *delta* into aggregate registry counters (the same instrument names
    # the rich engine's RegistryRecorder maintains, minus per-event detail).
    registry = MetricsRegistry()
    c_req = registry.counter("sim_requests")
    c_hit = registry.counter("sim_hits")
    c_evict = registry.counter("sim_evictions")
    c_compact = registry.counter("batch_compactions")
    c_spill = registry.counter("batch_spills")
    c_chunks = registry.counter("batch_chunks")
    prev = (0, 0, 0, 0, 0)  # requests, hits, evictions, compactions, spills
    t_cpu0 = time.process_time()
    t0 = time.perf_counter()
    for _times, keys, sizes in iter_source_chunks(source, chunk_size):
        keys = np.asarray(keys)
        sizes = _as_int64_sizes(sizes)
        n = len(keys)
        cut = warmup - seen
        if 0 < cut < n:
            feed(keys[:cut], sizes[:cut])
            mark = stats_mark(core.stats)
            feed(keys[cut:], sizes[cut:])
        else:
            feed(keys, sizes)
        seen += n
        st = core.stats
        if seen <= warmup:  # still warming up, or the boundary is this chunk's end
            mark = stats_mark(st)
        cur = (
            st.requests,
            st.hits,
            st.evictions,
            getattr(core, "compactions", 0),
            getattr(core, "spills", 0),
        )
        c_req.inc(cur[0] - prev[0])
        c_hit.inc(cur[1] - prev[1])
        c_evict.inc(cur[2] - prev[2])
        c_compact.inc(cur[3] - prev[3])
        c_spill.inc(cur[4] - prev[4])
        c_chunks.inc()
        prev = cur
    elapsed = time.perf_counter() - t0
    cpu = time.process_time() - t_cpu0
    metrics = MetricsCollector.from_stats(core.stats, mark, seen, warmup)
    result = SimResult.from_run(
        core, trace_name or _source_name(source), seen, metrics, elapsed, cpu
    )
    result.obs = {"registry": registry.snapshot(), "chunks": int(c_chunks.value)}
    return result
