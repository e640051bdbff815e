"""SCIP — Smart Cache Insertion and Promotion policy (Algorithm 1).

The paper's headline contribution.  SCIP unifies the insertion policy (where
a *missing* object enters the LRU queue) and the promotion policy (where a
*hit* object is re-placed): a hit is treated as a special missing object —
silently removed (``C.REMOVE``, no history record) and re-inserted — and one
learned model decides between the MRU and LRU positions for both cases.

The model has two coupled layers, both driven by the history (shadow) lists
``H_m`` / ``H_l`` of §3.2:

**Global layer (Algorithm 1 verbatim).**  A two-expert MAB holds execution
probabilities ``ω_m + ω_l = 1``.  A ghost hit in ``H_m`` (an object whose
last placement was MRU, evicted, now re-requested — i.e. the placement
bought a full cache traversal and no hit) penalises the MRU expert,
``ω_m ← ω_m·e^{−λ}``; a ghost hit in ``H_l`` penalises the LRU expert.
Objects with no history are placed by ``SELECT`` — Bernoulli(ω_m).  λ
follows Algorithm 2 (gradient-based stochastic hill climbing with random
restarts), reacting to hit-rate trends every ``update_interval`` requests.

**Per-object layer (§3.2's position adjustment + §5.1's hit token).**
"If a missing object is hit in two lists, the insertion position of the
object should be adjusted."  The history entry carries the evicted tenure's
hit token, which disambiguates the episode kind, and the adjustment must
*persist across episodes* for the recurring populations the paper targets
(A-ZROs, A-P-ZROs — Figures 1(c)/(f)):

====================================  =======================================
ghost evidence                        action for this insertion
====================================  =======================================
``H_m``, token False                  confirmed recurring **ZRO** — insert at
                                      LRU, remember the denial (``DENIED``)
``H_m``, token True                   **P-ZRO** pattern (earns hits, dies
                                      right after) — insert at MRU, flag as
                                      suspect: its *next hit* is demoted
``H_l``, flag ``DENIED``, token F     the denial was right (still unused at
                                      the tail) — keep denying, no penalty
``H_l``, flag ``DENIED``, token T     it was hit even at the tail — release:
                                      insert at MRU, penalise ω_l
``H_l``, flag ``DEMOTED``             the demotion was right (died at the
                                      tail after its hit) — re-arm: MRU +
                                      suspect, no penalty
``H_l``, flag ``NORMAL``              a bimodal LRU insertion threw away a
                                      comeback — insert at MRU, penalise ω_l
====================================  =======================================

On a **hit** of a flagged suspect, the object is demoted to the LRU position
(the unified "insert the hit object as if missing") and the flag is
consumed — if it is hit again regardless, the suspicion was wrong and normal
promotion resumes.  Unflagged hits re-insert by the bimodal draw, which in
ZRO-light phases keeps SCIP at classic LRU promotion.

Victim selection stays plain LRU — SCIP is an insertion/promotion policy;
the wrappers in :mod:`repro.core.enhance` splice it under other victim
selection rules (LRU-K, LRB) for the Figure 12 experiment.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.cache.base import LRU_POS, MRU_POS, CachePolicy, QueueCache
from repro.cache.queue import Node
from repro.core.history import HistoryList
from repro.core.learning import LAMBDA_MAX, LAMBDA_MIN, LearningRateController
from repro.core.mab import PositionBandit
from repro.sim.request import Request

__all__ = ["SCIPCache", "NORMAL", "DENIED", "DEMOTED", "SUSPECT", "CLEARED"]

#: Episode-kind flags stored in history entries and (as a bitmask with
#: SUSPECT) in ``Node.data``.
NORMAL = 0
DENIED = 1    # inserted at LRU as a recognised recurring ZRO
DEMOTED = 2   # demoted on a hit as a recognised P-ZRO
SUSPECT = 4   # next hit should be demoted (node-only bit)
CLEARED = 3   # a past P-ZRO suspicion was disproved: do not re-arm

#: What :meth:`SCIPCache.replay_columns` inlines; overriding any of these
#: sends a subclass back to the per-request hook path.
_INLINED = (
    "request", "_lookup", "_hit", "_miss", "_make_room", "evict_node", "_choose_victim",
    "_insert_position", "_on_hit", "_on_insert", "_on_evict", "_long_gap", "_deny", "_suspect",
)


class SCIPCache(QueueCache):
    """Smart Cache Insertion and Promotion over an LRU queue.

    Parameters
    ----------
    capacity:
        Cache capacity in bytes.
    history_fraction:
        Byte budget of *each* history list as a fraction of the cache.
        The paper says "logically half of the real cache"; at production
        (TDC) scale a half-cache shadow list spans hours of evictions and
        covers the recurrence periods of ZRO traffic.  At simulator scale a
        literal 0.5 only reaches ~1.5 cache lifetimes back, so the default
        here preserves the *reach in cache lifetimes* rather than the byte
        ratio (see DESIGN.md, substitutions).  Lists store metadata only;
        actual memory is ~32 B per entry either way.
    update_interval:
        ``i`` in Algorithm 1 — requests between ``UPDATELR`` calls.
    initial_lambda:
        Starting learning rate (restarts redraw from [0.001, 1]).
    initial_w_mru:
        Starting MRU-expert weight (0.9: stay near the LRU deployment SCIP
        replaces until ghost evidence accumulates).
    escape:
        Bimodal reconciliation probability: a recognised ZRO (or a re-armed
        P-ZRO suspicion) escapes its treatment with this probability and
        gets a full MRU tenure, so misjudged objects recover in an expected
        ``1/escape`` episodes (§1: BIP "ensures that suspected ZROs and
        P-ZROs are given a chance to be accessed, thereby reconciling
        possible misjudgments").
    per_object:
        Enable the §3.2 per-object position-adjustment layer (denials,
        suspicions, gap tests).  ``False`` runs Algorithm 1 *literally*:
        ghost hits only update the global ω pair and every placement comes
        from ``SELECT`` — the ablation quantifying what the per-object
        interpretation adds (DESIGN.md §7.1).
    use_hit_token:
        Use the §5.1 hit token carried in history entries to separate ZRO
        from P-ZRO episodes.  ``False`` treats every long-gap ``H_m`` ghost
        as a ZRO (no suspicion machinery).
    seed:
        Seeds both the γ draws and λ restarts; experiments are deterministic.
    """

    name = "SCIP"

    def __init__(
        self,
        capacity: int,
        history_fraction: float = 32.0,
        update_interval: int = 1000,
        initial_lambda: float = 0.1,
        initial_w_mru: float = 0.9,
        escape: float = 1 / 8,
        deny_gap_factor: float = 2.5,
        promote_threshold: float = 0.0,
        per_object: bool = True,
        use_hit_token: bool = True,
        unlearn_limit: int = 10,
        seed: int = 0,
    ):
        super().__init__(capacity)
        if history_fraction < 0:
            raise ValueError(f"history_fraction must be >= 0, got {history_fraction}")
        if update_interval < 1:
            raise ValueError(f"update_interval must be >= 1, got {update_interval}")
        if not 0.0 <= escape <= 1.0:
            raise ValueError(f"escape must be in [0, 1], got {escape}")
        self.escape = escape
        self.seed = seed
        rng = random.Random(seed)
        self._rng = rng
        self.h_m = HistoryList(int(capacity * history_fraction))
        self.h_l = HistoryList(int(capacity * history_fraction))
        self.bandit = PositionBandit(initial_w_mru=initial_w_mru, rng=rng)
        self.lr = LearningRateController(
            initial=initial_lambda, unlearn_limit=unlearn_limit, rng=rng
        )
        self.update_interval = update_interval
        # Windowed hit-rate tracking for Π_t / Π_{t-i}.
        self._win_hits = 0
        self._win_reqs = 0
        self._prev_hit_rate = 0.0
        # Diagnostics.
        self.ghost_hits_m = 0
        self.ghost_hits_l = 0
        self.zro_denials = 0
        self.pzro_demotions = 0
        self.deny_gap_factor = deny_gap_factor
        self.promote_threshold = promote_threshold
        self.per_object = per_object
        self.use_hit_token = use_hit_token
        # EWMA of full-queue traversal time (MRU insertion -> eviction), the
        # yardstick the return-gap test compares against.  The starting
        # value only matters for the first few hundred evictions.
        self._tenure_ewma = 1000.0
        # Per-object P-ZRO confidence: +1 per confirmed demotion (died at
        # the tail, returned a cache-lifetime later), −2 per disproof (the
        # demotion forfeited a quick follow-up).  Suspicion only arms at
        # non-negative confidence, so objects whose hits usually have
        # successors stop being gambled on, while consistent
        # single-hit-then-die objects stay treated.
        self._pzro_conf: dict = {}
        # Per-miss transient state set by the ghost lookup.
        self._forced_pos: Optional[int] = None
        self._insert_flags = NORMAL

    # -- observability -----------------------------------------------------------
    def attach_probe(self, probe) -> None:
        """Attach the probe to the whole learner stack: SCIP's own hook
        points (``ghost_hit``, ``episode_transition``, ``admit``/``evict``)
        plus the bandit's ``weight_update`` and the λ controller's
        ``lambda_update``/``lambda_restart``."""
        super().attach_probe(probe)
        self.bandit.attach_probe(probe)
        self.lr.attach_probe(probe)

    def detach_probe(self) -> None:
        super().detach_probe()
        self.bandit.detach_probe()
        self.lr.detach_probe()

    # -- Algorithm 1 main loop ---------------------------------------------------
    def request(self, req: Request) -> bool:
        hit = super().request(req)
        self._win_reqs += 1
        if hit:
            self._win_hits += 1
        if self._win_reqs >= self.update_interval:
            hit_rate = self._win_hits / self._win_reqs
            self.lr.update(hit_rate, self._prev_hit_rate)
            self._prev_hit_rate = hit_rate
            self._win_hits = 0
            self._win_reqs = 0
            # Bound the confidence map to metadata scale (ghost-list order).
            cap_entries = 4 * (len(self.h_m) + len(self.h_l)) + 4096
            if len(self._pzro_conf) > cap_entries:
                known = set(self.h_m.keys()) | set(self.h_l.keys()) | set(self.index)
                self._pzro_conf = {
                    k: v for k, v in self._pzro_conf.items() if k in known
                }
        return hit

    # -- promotion (Algorithm 1, L23-25): remove + unified re-insert ----------------
    def _on_hit(self, node: Node, req: Request) -> None:
        self.queue.unlink(node)  # C.REMOVE — not recorded anywhere
        flags = node.data or NORMAL
        if flags & SUSPECT:
            # P-ZRO suspect: history says this object's tenures die right
            # after a hit.  Treat the hit as the special missing object it
            # is about to become: LRU position.  Consume the suspicion so a
            # surviving re-hit proves us wrong and restores promotion.
            node.data = DEMOTED
            node.inserted_mru = False
            self.queue.push_lru(node)
            self.pzro_demotions += 1
            if self._probe is not None:
                self._probe.emit("episode_transition", key=node.key, to="DEMOTED")
            return
        if flags & DEMOTED:
            # Re-hit while demoted at the tail: the suspicion was wrong.
            c = self._pzro_conf.get(node.key, 0)
            self._pzro_conf[node.key] = max(c - 2, -4)
            if self._probe is not None:
                self._probe.emit("episode_transition", key=node.key, to="RELEASED")
        node.data = flags & ~DENIED  # a hit clears ZRO state
        if self.bandit.select_promotion(self.promote_threshold) == MRU_POS:
            node.inserted_mru = True
            node.stamp = self.clock  # promotion restarts the traversal clock
            self.queue.push_mru(node)
        else:
            node.inserted_mru = False
            self.queue.push_lru(node)

    # -- miss path: ghost evidence → weights + per-object adjustment -----------------
    def _miss(self, req: Request) -> None:
        self._forced_pos = None
        self._insert_flags = NORMAL
        lam = self.lr.value
        entry = self.h_m.pop(req.key)
        if entry is not None:
            _, hits, flag, etime = entry
            self.ghost_hits_m += 1
            if self._probe is not None:
                self._probe.emit(
                    "ghost_hit",
                    list="m",
                    key=req.key,
                    hits=hits,
                    flag=flag,
                    age=self.clock - etime,
                )
            if not self.per_object:
                # Algorithm 1 literal: global update only (L6-8).
                self.bandit.penalize_mru(lam)
            elif not self.use_hit_token and self._long_gap(etime):
                # Token-blind variant: every long-gap H_m ghost is a ZRO.
                self.bandit.penalize_mru(lam)
                self._deny(req.key)
            elif not self.use_hit_token:
                self._forced_pos = MRU_POS
            elif not self._long_gap(etime):
                # Returned within a cache lifetime of its eviction: the
                # tenure was merely unlucky, the object is cacheable.  Give
                # it the MRU position; no evidence against the MRU expert.
                self._forced_pos = MRU_POS
            elif hits == 0:
                # Confirmed recurring ZRO: the MRU placement bought a full
                # traversal and nothing else.  Penalise the expert and deny
                # the position.
                self.bandit.penalize_mru(lam)
                self._deny(req.key)
            elif hits == 1:
                # Single-hit-then-die signature: the one hit was a P-ZRO
                # event.  The *promotion* wasted a traversal — penalise the
                # MRU expert and arm the suspicion for the next tenure.
                # A CLEARED record means a past demotion of this object was
                # disproved (it missed again right after) — don't gamble
                # again except for the occasional bimodal retry.
                self.bandit.penalize_mru(lam)
                self._forced_pos = MRU_POS
                if self._pzro_conf.get(req.key, 0) >= 0:
                    # Negative confidence = past demotions of this object
                    # forfeited follow-up hits; it is permanently released
                    # to normal promotion (the conservative side of the
                    # trade — a wrong demotion costs hits, a missed one
                    # only costs space).
                    self._suspect(req.key)
            else:
                # Multi-hit tenure: the object earns its keep while
                # resident; demoting any one hit would forfeit the rest.
                self._forced_pos = MRU_POS
        else:
            entry = self.h_l.pop(req.key)
            if entry is not None:
                _, hits, flag, etime = entry
                if self._probe is not None:
                    self._probe.emit(
                        "ghost_hit",
                        list="l",
                        key=req.key,
                        hits=hits,
                        flag=flag,
                        age=self.clock - etime,
                    )
                if not self.per_object:
                    self.bandit.penalize_lru(lam)
                    self.ghost_hits_l += 1
                elif flag == DENIED and hits == 0 and self._long_gap(etime):
                    # Denial confirmed (unused at the tail AND the return
                    # gap still exceeds a cache lifetime): sustain it.  The
                    # confirmation is also regime evidence — an MRU tenure
                    # would have been wasted — so the MRU expert pays.
                    self.bandit.penalize_mru(lam)
                    self._deny(req.key)
                elif flag == DEMOTED and self._long_gap(etime):
                    # Demotion confirmed (died at the tail right after its
                    # hit, returning only after a cache lifetime): raise the
                    # object's confidence, re-arm, and charge the MRU expert.
                    c = self._pzro_conf.get(req.key, 0)
                    self._pzro_conf[req.key] = min(c + 1, 3)
                    self.bandit.penalize_mru(lam)
                    self._forced_pos = MRU_POS
                    self._suspect(req.key)
                else:
                    # Release to the MRU position.  Only a NORMAL-flag entry
                    # indicts the LRU expert — a DENIED/DEMOTED entry's tail
                    # placement was the per-object machinery's decision, not
                    # the expert's, so releasing it carries no global signal.
                    # A quick comeback after a DEMOTED death means the
                    # demotion forfeited a real follow-up hit: mark the
                    # object CLEARED so the suspicion is not re-armed.
                    if flag == NORMAL:
                        self.bandit.penalize_lru(lam)
                        self.ghost_hits_l += 1
                    elif flag == DEMOTED:
                        # Quick comeback after a demotion death: the
                        # demotion forfeited a real follow-up hit.
                        c = self._pzro_conf.get(req.key, 0)
                        self._pzro_conf[req.key] = max(c - 2, -4)
                    self._forced_pos = MRU_POS
        super()._miss(req)

    def _long_gap(self, evict_time: int) -> bool:
        """Return-gap test: did the object stay away for longer than the
        cache could ever have held it?  Only such objects are ZRO/P-ZRO
        treatable — quick returners are marginal objects worth caching."""
        return (self.clock - evict_time) > self.deny_gap_factor * self._tenure_ewma

    def _deny(self, key: int) -> None:
        """Apply (or sustain) a ZRO denial, with bimodal escape."""
        if self._rng.random() < self.escape:
            self._forced_pos = MRU_POS  # reconciliation tenure
            self._insert_flags = NORMAL
            if self._probe is not None:
                self._probe.emit("episode_transition", key=key, to="ESCAPED")
            return
        self._forced_pos = LRU_POS
        self._insert_flags = DENIED
        self.zro_denials += 1
        if self._probe is not None:
            self._probe.emit("episode_transition", key=key, to="DENIED")

    def _suspect(self, key: int) -> None:
        """Arm (or re-arm) a P-ZRO suspicion, with bimodal escape."""
        if self._rng.random() < self.escape:
            self._insert_flags = NORMAL
            if self._probe is not None:
                self._probe.emit("episode_transition", key=key, to="ESCAPED")
            return
        self._insert_flags = SUSPECT
        if self._probe is not None:
            self._probe.emit("episode_transition", key=key, to="SUSPECT")

    def _insert_position(self, req: Request) -> int:
        if self._forced_pos is not None:
            pos = self._forced_pos
            self._forced_pos = None
            return pos
        return self.bandit.select()

    def _on_insert(self, node: Node, req: Request) -> None:
        node.data = self._insert_flags
        node.stamp = self.clock
        self._insert_flags = NORMAL

    # -- eviction → history routing (L14-19) --------------------------------------------
    def _on_evict(self, node: Node) -> None:
        flags = node.data or NORMAL
        if flags & DENIED:
            flag = DENIED
        elif flags & DEMOTED:
            flag = DEMOTED
        else:
            flag = NORMAL
        if node.inserted_mru:
            # A full MRU->LRU traversal measures the cache lifetime.
            self._tenure_ewma += 0.02 * ((self.clock - node.stamp) - self._tenure_ewma)
            self.h_m.add(
                node.key, node.size, hits=node.hit_token or 0, flag=flag, time=self.clock
            )
        else:
            self.h_l.add(
                node.key, node.size, hits=node.hit_token or 0, flag=flag, time=self.clock
            )

    # -- bulk replay: Algorithm 1 + the per-object layer in one loop ---------------------
    def _fast_replay_eligible(self) -> bool:
        """Whether :meth:`replay_columns` may run its inlined loop.

        The loop reproduces ``request``/``_hit``/``_on_hit``/``_miss``/
        ``_on_evict`` and the helpers they call as written in *this* class,
        so it engages only when none of them is overridden (``SCICache``,
        ``SCIPLRUK``, ``SCIPLRB`` keep the hook path).  The loop passes the
        hook points by; what it can do for an observer is count, so a probe
        is admitted only when that is all its sinks ask for
        (:attr:`Probe.folds <repro.obs.probe.Probe.folds>`) and the same
        probe sits on policy, bandit and λ controller, as
        :meth:`attach_probe` leaves it — the loop's counters cover all
        three.  Any other probe selects the per-event hook path.
        """
        probe = self._probe
        if self.bandit._probe is not probe or self.lr._probe is not probe:
            return False
        if probe is not None and not probe.folds:
            return False
        cls = type(self)
        return all(getattr(cls, name) is getattr(SCIPCache, name) for name in _INLINED)

    def _fold_window(self, sizes: list, decisions: list, victims: list, pool: list, out) -> None:
        """Report what :meth:`replay_columns` held for the observer since
        the last window edge — ``sizes`` beside their ``decisions`` (an
        admission is a miss that fits) and the evicted nodes — then let go
        of it: the decisions go to ``out``, the victims to the ``pool``."""
        probe = self._probe
        capacity = self.capacity
        admitted = [size for size, hit in zip(sizes, decisions) if not hit and size <= capacity]
        probe.fold("admit", len(admitted), size=admitted)
        probe.fold(
            "evict",
            len(victims),
            size=[victim.size for victim in victims],
            hits=[victim.hit_token for victim in victims],
        )
        if out is not None:
            out.extend(decisions)
        decisions.clear()
        pool.extend(victims)
        victims.clear()

    def replay_columns(self, keys: list, sizes: list, out: Optional[list] = None) -> None:
        """Replay parallel ``keys``/``sizes`` lists (a trace chunk's columns).

        State-exact with one :meth:`request` call per element — decisions,
        counters, queue order with every node's flags/stamp/token, both
        history lists, the ω pair, λ and the RNG stream — but as a single
        loop over the policy's own structures: no ``Request`` objects, no
        method dispatch, counters in locals folded back at the end (so a
        trace split across calls equals one call).  Float operation order
        and the number and order of RNG draws follow the hook path; the
        per-miss steps are only regrouped where they touch disjoint state
        (the ω penalty before the escape draw, ``SELECT`` before the
        evictions).  ``tests/sim/test_batch_equivalence.py`` pins all of it
        against the ``request`` loop.

        Under a probe that folds (see :meth:`_fast_replay_eligible`) the same
        loop is the instrumentation: its counters are the event counts, the
        decisions it appends give the admitted sizes, and the victims are
        kept instead of recycled for theirs.  It hands them to
        :meth:`Probe.fold <repro.obs.probe.Probe.fold>` at each UPDATELR
        window edge, so what is held for the observer is one window's worth,
        and the registry ends up as the hook path's would
        (``tests/obs/test_fold_equivalence.py``).  Unobserved, an iteration
        executes nothing for any of this.
        """
        if not self._fast_replay_eligible():
            return CachePolicy.replay_columns(self, keys, sizes, out)
        if len(keys) != len(sizes):
            raise ValueError(f"keys/sizes length mismatch: {len(keys)} vs {len(sizes)}")
        index = self.index
        index_get = index.get
        queue = self.queue
        sentinel = queue._sentinel
        capacity = self.capacity
        node_cls = Node
        append = out.append if out is not None else None
        h_m = self.h_m
        h_l = self.h_l
        hm_entries = h_m._entries
        hl_entries = h_l._entries
        hm_pop = hm_entries.pop
        hl_pop = hl_entries.pop
        conf = self._pzro_conf
        bandit = self.bandit
        escape_draw = self._rng.random  # _deny / _suspect
        select_draw = bandit.rng.random  # SELECT and the promotion draw
        lr_update = self.lr.update
        escape = self.escape
        gap_factor = self.deny_gap_factor
        promote_threshold = self.promote_threshold
        per_object = self.per_object
        use_hit_token = self.use_hit_token
        update_interval = self.update_interval
        threshold_mode = bandit.mode == "threshold"
        # Loop-local mirrors of instance state, folded back after the loop.
        used = self.used
        clock = self.clock
        qbytes = queue.bytes
        count = queue._count
        hits = misses = bytes_hit = bytes_missed = evictions = bypasses = 0
        ghost_m = ghost_l = denials = demotions = pen_mru = pen_lru = 0
        hl_pops = released = escaped = suspects = 0  # events only an observer counts
        tenure = self._tenure_ewma
        w_mru = bandit.w_mru
        w_lru = bandit.w_lru
        lam = self.lr.value
        decay = math.exp(-lam)
        # The hit-rate window as offsets of the counters above: requests in
        # the window = clock - win_start, hits in it = hits - win_hits_from.
        win_start = clock - self._win_reqs
        win_hits_from = -self._win_hits
        boundary = win_start + update_interval
        # Evicted nodes are recycled for later inserts (see QueueCache.replay_columns).
        pool: list = []
        pool_pop = pool.pop
        pool_append = pool.append
        probe = self._probe
        if probe is not None:
            # Observed: keep every decision and every victim until the next
            # window edge folds them; only then do the victims join the pool.
            decisions: list = []
            victims: list = []
            append = decisions.append
            pool_append = victims.append
            first = clock  # sizes[i] arrives at clock first + 1 + i
            folded = 0  # sizes[:folded] are with the probe already
        for key, size in zip(keys, sizes):
            clock += 1
            node = index_get(key)
            if node is not None:
                # Hit: C.REMOVE, then re-insert as the special missing object.
                admit = False
                need = 0
                hits += 1
                bytes_hit += size
                node.hit_token += 1
                if node.size != size:
                    d = size - node.size
                    used += d
                    qbytes += d
                    node.size = size
                prev = node.prev
                nxt = node.next
                prev.next = nxt
                nxt.prev = prev
                flags = node.data or NORMAL
                if flags & SUSPECT:
                    node.data = DEMOTED
                    to_mru = False
                    demotions += 1
                else:
                    if flags & DEMOTED:
                        conf[key] = max(conf.get(key, 0) - 2, -4)
                        released += 1
                    node.data = flags & ~DENIED
                    if threshold_mode:
                        to_mru = w_mru > promote_threshold
                    else:
                        to_mru = (
                            w_mru >= promote_threshold
                            or select_draw() < w_mru / promote_threshold
                        )
                node.inserted_mru = to_mru
                if to_mru:
                    node.stamp = clock  # promotion restarts the traversal clock
                    head = sentinel.next
                    node.prev = sentinel
                    node.next = head
                    head.prev = node
                    sentinel.next = node
                else:
                    tail = sentinel.prev
                    node.next = sentinel
                    node.prev = tail
                    tail.next = node
                    sentinel.prev = node
                if append is not None:
                    append(True)
            else:
                misses += 1
                bytes_missed += size
                if append is not None:
                    append(False)
                need = 0
                admit = size <= capacity
                if not admit:
                    bypasses += 1
                else:
                    # Ghost evidence -> ω penalty, per-object action, position.
                    need = size
                    iflags = NORMAL
                    penalty = act = 0  # penalty: 1 = ω_m, 2 = ω_l; act: 1 = deny, 2 = suspect
                    to_mru = None
                    entry = hm_pop(key, None)
                    if entry is not None:
                        esize, ghits, gflag, etime = entry
                        h_m.bytes -= esize
                        ghost_m += 1
                        if not per_object:
                            penalty = 1
                        elif not (clock - etime) > gap_factor * tenure:
                            to_mru = True
                        elif not use_hit_token or ghits == 0:
                            penalty = act = 1
                        elif ghits == 1:
                            penalty = 1
                            to_mru = True
                            if conf.get(key, 0) >= 0:
                                act = 2
                        else:
                            to_mru = True
                    else:
                        entry = hl_pop(key, None)
                        if entry is not None:
                            esize, ghits, gflag, etime = entry
                            h_l.bytes -= esize
                            hl_pops += 1
                            long_gap = (clock - etime) > gap_factor * tenure
                            if not per_object:
                                penalty = 2
                                ghost_l += 1
                            elif gflag == DENIED and ghits == 0 and long_gap:
                                penalty = act = 1
                            elif gflag == DEMOTED and long_gap:
                                conf[key] = min(conf.get(key, 0) + 1, 3)
                                penalty = 1
                                to_mru = True
                                act = 2
                            else:
                                if gflag == NORMAL:
                                    penalty = 2
                                    ghost_l += 1
                                elif gflag == DEMOTED:
                                    conf[key] = max(conf.get(key, 0) - 2, -4)
                                to_mru = True
                    if penalty:
                        if penalty == 1:
                            w_mru *= decay
                            pen_mru += 1
                        else:
                            w_lru *= decay
                            pen_lru += 1
                        total = w_mru + w_lru
                        if total <= 0.0:  # pragma: no cover - as PositionBandit._normalize
                            w_mru = w_lru = 0.5
                        else:
                            w_mru /= total
                            w_lru = 1.0 - w_mru
                            if w_mru < 0.01:
                                w_mru = 0.01
                                w_lru = 1.0 - 0.01
                            elif w_lru < 0.01:
                                w_lru = 0.01
                                w_mru = 1.0 - 0.01
                    if act == 1:
                        if escape_draw() < escape:
                            to_mru = True
                            escaped += 1
                        else:
                            to_mru = False
                            iflags = DENIED
                            denials += 1
                    elif act == 2:
                        if escape_draw() < escape:
                            escaped += 1
                        else:
                            iflags = SUSPECT
                            suspects += 1
                    if to_mru is None:
                        if threshold_mode:
                            to_mru = w_mru > 0.5
                        else:
                            to_mru = w_mru > select_draw()
            # Make room (an admitted miss, or a hit whose object grew).
            while used + need > capacity and index:
                victim = sentinel.prev
                p = victim.prev
                p.next = sentinel
                sentinel.prev = p
                vkey = victim.key
                vsize = victim.size
                del index[vkey]
                used -= vsize
                qbytes -= vsize
                count -= 1
                evictions += 1
                flags = victim.data or NORMAL
                if flags & DENIED:
                    flag = DENIED
                elif flags & DEMOTED:
                    flag = DEMOTED
                else:
                    flag = NORMAL
                if victim.inserted_mru:
                    tenure += 0.02 * ((clock - victim.stamp) - tenure)
                    hist = h_m
                else:
                    hist = h_l
                entries = hist._entries
                hbytes = hist.bytes
                hcap = hist.capacity
                if vkey in entries:
                    hbytes -= entries.pop(vkey)[0]
                while entries and hbytes + vsize > hcap:
                    hbytes -= entries.popitem(last=False)[1][0]
                if vsize <= hcap:
                    entries[vkey] = (vsize, victim.hit_token or 0, flag, clock)
                    hbytes += vsize
                hist.bytes = hbytes
                pool_append(victim)
            if admit:
                if pool:
                    node = pool_pop()
                    node.key = key
                    node.size = size
                    node.hit_token = 0
                else:
                    node = node_cls(key, size)
                node.inserted_mru = to_mru
                node.data = iflags
                node.stamp = clock
                if to_mru:
                    head = sentinel.next
                    node.prev = sentinel
                    node.next = head
                    head.prev = node
                    sentinel.next = node
                else:
                    tail = sentinel.prev
                    node.next = sentinel
                    node.prev = tail
                    tail.next = node
                    sentinel.prev = node
                count += 1
                qbytes += size
                index[key] = node
                used += size
            if clock >= boundary:
                # UPDATELR, and the confidence map bounded to metadata scale.
                if probe is not None:
                    self.clock = clock  # lr.update's own events are stamped with it
                    self._fold_window(sizes[folded:clock - first], decisions, victims, pool, out)
                    folded = clock - first
                hit_rate = (hits - win_hits_from) / (clock - win_start)
                lam = lr_update(hit_rate, self._prev_hit_rate)
                decay = math.exp(-lam)
                self._prev_hit_rate = hit_rate
                win_start = clock
                win_hits_from = hits
                boundary = clock + update_interval
                if len(conf) > 4 * (len(hm_entries) + len(hl_entries)) + 4096:
                    known = set(hm_entries) | set(hl_entries) | set(index)
                    conf = self._pzro_conf = {
                        k: v for k, v in conf.items() if k in known
                    }
        if probe is not None:
            self._fold_window(sizes[folded:], decisions, victims, pool, out)
            ghosts = {"m": ghost_m, "l": hl_pops}
            probe.fold("ghost_hit", sum(ghosts.values()), list=ghosts)
            episodes = {
                "DEMOTED": demotions,
                "RELEASED": released,
                "ESCAPED": escaped,
                "DENIED": denials,
                "SUSPECT": suspects,
            }
            probe.fold("episode_transition", sum(episodes.values()), to=episodes)
            # ω moves only under a penalty: the pair now is the last update's.
            probe.fold("weight_update", pen_mru + pen_lru, w_mru=w_mru, w_lru=w_lru)
        # Cut leftover pooled nodes loose so they don't pin ring neighbours.
        for n in pool:
            n.prev = None
            n.next = None
        self.used = used
        self.clock = clock
        queue.bytes = qbytes
        queue._count = count
        st = self.stats
        st.hits += hits
        st.misses += misses
        st.bytes_hit += bytes_hit
        st.bytes_missed += bytes_missed
        st.evictions += evictions
        st.bypasses += bypasses
        self._win_reqs = clock - win_start
        self._win_hits = hits - win_hits_from
        self.ghost_hits_m += ghost_m
        self.ghost_hits_l += ghost_l
        self.zro_denials += denials
        self.pzro_demotions += demotions
        self._tenure_ewma = tenure
        bandit.w_mru = w_mru
        bandit.w_lru = w_lru
        bandit.penalties_mru += pen_mru
        bandit.penalties_lru += pen_lru

    # -- introspection ------------------------------------------------------------------
    @property
    def w_mru(self) -> float:
        """Current MRU-expert probability ω_m."""
        return self.bandit.w_mru

    @property
    def learning_rate(self) -> float:
        """Current λ."""
        return self.lr.value

    def metadata_bytes(self) -> int:
        return (
            110 * len(self)
            + self.h_m.metadata_bytes()
            + self.h_l.metadata_bytes()
            + 16 * len(self._pzro_conf)
            + 64  # ω pair, λ state, window counters
        )

    def check_invariants(self) -> None:
        super().check_invariants()
        self.h_m.check_invariants()
        self.h_l.check_invariants()
        assert abs(self.bandit.w_mru + self.bandit.w_lru - 1.0) < 1e-9
        assert 0.0 <= self.bandit.w_mru <= 1.0 and 0.0 <= self.bandit.w_lru <= 1.0
        assert LAMBDA_MIN <= self.lr.value <= LAMBDA_MAX, self.lr.value
        # FIFO history lists must respect their byte budgets at all times.
        assert self.h_m.bytes <= self.h_m.capacity or self.h_m.capacity == 0
        assert self.h_l.bytes <= self.h_l.capacity or self.h_l.capacity == 0
