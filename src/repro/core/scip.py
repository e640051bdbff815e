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
(A-ZROs, A-P-ZROs — Figures 1(c)/(f)).  A ghost is *long-gap* when it
returns more than ``deny_gap_factor`` cache lifetimes after its eviction,
``clock − evict_time > deny_gap_factor · tenure_ewma``; ``conf`` is the
object's P-ZRO confidence (default 0, kept in ``[−4, 3]``):

=========================================  ==================================
ghost evidence on an admission             action for this insertion
=========================================  ==================================
none                                       position by ``SELECT``
any, ``per_object=False``                  ``H_m``: penalise ω_m; ``H_l``:
                                           penalise ω_l; position by
                                           ``SELECT`` (Algorithm 1 literal)
``H_m``, ``use_hit_token=False``           long gap: penalise ω_m, DENY;
                                           else MRU
``H_m``, short gap                         MRU — a quick returner is
                                           cacheable
``H_m``, token 0                           confirmed recurring **ZRO** —
                                           penalise ω_m, DENY
``H_m``, token 1                           **P-ZRO** pattern (earns a hit,
                                           dies right after) — penalise ω_m,
                                           MRU, and SUSPECT if ``conf ≥ 0``
``H_m``, token ≥ 2                         MRU — the object earns its keep
``H_l``, flag ``DENIED``, token 0, long    the denial was right — penalise
                                           ω_m, DENY
``H_l``, flag ``DEMOTED``, long gap        the demotion was right —
                                           ``conf ← min(conf+1, 3)``,
                                           penalise ω_m, MRU, SUSPECT
``H_l``, otherwise                         release to MRU; a ``NORMAL`` flag
                                           penalises ω_l, a ``DEMOTED`` one
                                           sets ``conf ← max(conf−2, −4)``
=========================================  ==================================

DENY draws ``u``: ``u < escape`` gives a reconciliation tenure (MRU, flag
``NORMAL``), otherwise LRU with flag ``DENIED``.  SUSPECT draws ``u``:
``u < escape`` leaves the flag ``NORMAL``, otherwise it is ``SUSPECT``.

On a **hit** of a flagged suspect, the object is demoted to the LRU position
(the unified "insert the hit object as if missing") and its flag becomes
``DEMOTED`` — if it is hit again regardless, the suspicion was wrong
(``conf ← max(conf−2, −4)``) and normal promotion resumes.  Other hits clear
``DENIED`` and re-insert by the promotion draw (``threshold`` mode: MRU iff
``ω_m > promote_threshold``; ``bernoulli``: MRU iff ``ω_m ≥
promote_threshold`` or ``u < ω_m / promote_threshold``), which in ZRO-light
phases keeps SCIP at classic LRU promotion.  An MRU placement restarts the
node's traversal stamp.

Victim selection stays plain LRU — SCIP is an insertion/promotion policy;
the wrappers in :mod:`repro.core.enhance` splice it under other victim
selection rules (LRU-K, LRB) for the Figure 12 experiment.  An evicted node
goes to ``H_m`` if it was last placed at MRU (and its traversal updates
``tenure_ewma += 0.02·((clock − stamp) − tenure_ewma)``), else to ``H_l``,
as ``(size, hit token, DENIED | DEMOTED | NORMAL, clock)``.

**Order of operations.**  One ``random.Random(seed)`` stream serves every
draw.  Within an admission: ghost lookup (``H_m`` first), the ω penalty
(``ω_x ← ω_x·e^{−λ}``, then ``ω_m ← ω_m / (ω_m + ω_l)``, ``ω_l ← 1 − ω_m``,
then the 0.01 floor on whichever fell below it), the escape draw, the
``SELECT`` draw (``bernoulli`` mode, position not forced: MRU iff
``ω_m > u``; ``threshold``: MRU iff ``ω_m > 0.5``), then the evictions and
the insert.  A hit whose object grew evicts after its re-placement.  Every
``update_interval`` recorded requests, after the request, UPDATELR runs on
the window's hit rate (its restart draw is the stream's next), then the
confidence map is cut to the keys in ``H_m``, ``H_l`` or the cache once it
holds more than ``4·(|H_m| + |H_l|) + 4096``.

**One statement, two drivers.**  All of the above is written once, in the
resumable kernel :meth:`SCIPCache._kernel`.  The drivers are
:class:`~repro.cache.base.QueueCache`'s: :meth:`~repro.cache.base.QueueCache.request`
sends it one request, :meth:`~repro.cache.base.QueueCache.replay_columns`
runs the same body over a chunk's columns, and
:meth:`~repro.cache.base.QueueCache.admit` and ``_make_room(0)`` are
off-record steps of it.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.cache.base import _CONTROL, QueueCache
from repro.cache.queue import Node
from repro.core.history import HistoryList
from repro.core.learning import LAMBDA_MAX, LAMBDA_MIN, LearningRateController
from repro.core.mab import PositionBandit

__all__ = ["SCIPCache", "NORMAL", "DENIED", "DEMOTED", "SUSPECT", "CLEARED"]

#: Episode-kind flags stored in history entries and (as a bitmask with
#: SUSPECT) in ``Node.data``.
NORMAL = 0
DENIED = 1    # inserted at LRU as a recognised recurring ZRO
DEMOTED = 2   # demoted on a hit as a recognised P-ZRO
SUSPECT = 4   # next hit should be demoted (node-only bit)
CLEARED = 3   # a past P-ZRO suspicion was disproved: do not re-arm


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

    The kernel reads its parameters, ``bandit.mode`` and the probes when it
    primes (on the first request after construction or a park); ``capacity``
    on every message.
    """

    name = "SCIP"

    # -- extension points: how SCI and the Figure 12 hosts ride the kernel ---------
    #: SCI (Algorithm 3): a hit re-inserts at MRU with its flags untouched.
    #: The kernel also reads :class:`~repro.cache.base.QueueCache`'s
    #: ``_on_access``, ``_choose_victim``, ``_on_insert`` and ``_on_evict``
    #: (LRU-K's access history, LRB's learner); placement is its own.
    always_mru = False

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
        # The hit-rate window for Π_t / Π_{t-i}: the clock and the hit count
        # where it started.
        self._win_start = 0
        self._win_hits_from = 0
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

    # -- observability -----------------------------------------------------------
    def attach_probe(self, probe) -> None:
        """Attach the probe to the whole learner stack: SCIP's own events
        (``ghost_hit``, ``episode_transition``, ``admit``/``evict``) plus
        the bandit's ``weight_update`` and the λ controller's
        ``lambda_update``/``lambda_restart``."""
        super().attach_probe(probe)
        self.bandit.attach_probe(probe)
        self.lr.attach_probe(probe)

    def detach_probe(self) -> None:
        super().detach_probe()
        self.bandit.detach_probe()
        self.lr.detach_probe()

    # -- the kernel ----------------------------------------------------------------
    def _kernel(self, keys: Optional[list] = None, sizes=None, out: Optional[list] = None):
        """Algorithm 1 and the per-object layer, stated once.

        A generator holding the policy's state in locals.  Driven per
        request (``keys`` is ``None``), it yields each decision and takes
        the next message: ``(key, size)`` is a recorded request,
        ``(_CONTROL, (key, size))`` an off-record step (an admission no
        request counts; with the size over capacity, only the eviction
        loop), ``_PARK`` stops it.  After each step it writes back the
        fields that step changed, so instance state is current between
        requests.  Driven by columns, it runs the same body over the chunk
        and returns; everything is written back when it ends.

        Probes: a sink that needs records gets them from emit sites in the
        body, in this order per request — ``ghost_hit``, ``weight_update``,
        ``episode_transition``, one ``evict`` per victim, ``admit``, then
        UPDATELR's own events.  Over columns, a probe whose sinks all fold
        (:attr:`Probe.folds <repro.obs.probe.Probe.folds>`) is instead
        handed counts, admitted sizes and the victims at each window edge
        and at the end (:meth:`_fold`).  Unobserved, the body pays one
        branch per site.
        """
        chunked = keys is not None
        index = self.index
        index_get = index.get
        queue = self.queue
        sentinel = queue._sentinel
        node_cls = Node
        control = _CONTROL
        h_m = self.h_m
        h_l = self.h_l
        hm_entries = h_m._entries
        hl_entries = h_l._entries
        hm_pop = hm_entries.pop
        hl_pop = hl_entries.pop
        conf = self._pzro_conf
        bandit = self.bandit
        escape_draw = self._rng.random  # DENY / SUSPECT
        select_draw = bandit.rng.random  # SELECT and the promotion draw
        lr_update = self.lr.update
        escape = self.escape
        gap_factor = self.deny_gap_factor
        promote_threshold = self.promote_threshold
        per_object = self.per_object
        use_hit_token = self.use_hit_token
        update_interval = self.update_interval
        threshold_mode = bandit.mode == "threshold"
        always_mru = self.always_mru
        choose = self._choose_victim
        access = self._on_access
        on_insert = self._on_insert
        on_evict = self._on_evict
        probe = self._probe
        bprobe = bandit._probe
        emit = probe.emit if probe is not None and not (chunked and probe.folds) else None
        wemit = bprobe.emit if bprobe is not None and not (chunked and bprobe.folds) else None
        folding = chunked and ((probe is not None and emit is None) or (bprobe is not None and wemit is None))
        hooked = not (choose is None and access is None and on_insert is None and on_evict is None)
        # A step keeps self.clock current unless nothing reads it mid-chunk.
        plain = chunked and emit is None and wemit is None and not hooked
        # Local mirrors of instance state.
        st = self.stats
        capacity = self.capacity
        used = self.used
        clock = self.clock
        qbytes = queue.bytes
        count = queue._count
        hits, misses, bytes_hit = st.hits, st.misses, st.bytes_hit
        bytes_missed, evictions, bypasses = st.bytes_missed, st.evictions, st.bypasses
        ghost_m, ghost_l = self.ghost_hits_m, self.ghost_hits_l
        denials, demotions = self.zro_denials, self.pzro_demotions
        pen_mru, pen_lru = bandit.penalties_mru, bandit.penalties_lru
        w_mru, w_lru = bandit.w_mru, bandit.w_lru
        tenure = self._tenure_ewma
        lam = self.lr.value
        decay = math.exp(-lam)
        win_start = self._win_start
        win_hits_from = self._win_hits_from
        boundary = win_start + update_interval
        hl_pops = released = escaped = suspects = 0  # events only an observer counts
        # Evicted nodes are recycled for later inserts; observed by a folding
        # probe, they are kept until the next fold reads them.
        pool: list = []
        pool_pop = pool.pop
        pool_append = pool.append
        victims: list = []
        admitted: list = []
        if folding and probe is not None and emit is None:
            pool_append = victims.append
        # What the last fold reported, as the counts it folds are kept.
        folded = (ghost_m, hl_pops, demotions, released, escaped, denials, suspects, pen_mru + pen_lru)
        append = out.append if out is not None else None
        record = True
        decision = None
        try:
            while True:
                if chunked:
                    pairs = zip(keys, sizes)
                else:
                    message = yield decision
                    if message[0] is control:
                        message = message[1]
                        if message is None:
                            return
                        record = False
                    else:
                        record = True
                    capacity = self.capacity
                    pairs = (message,)
                for key, size in pairs:
                    if plain:
                        clock += 1
                    elif record:
                        if access is not None:
                            access(key, size)
                        clock += 1
                        self.clock = clock
                    node = index_get(key)
                    if node is not None:
                        # Hit: C.REMOVE, then re-insert as the special missing object.
                        hit = True
                        admit = False
                        need = 0
                        hits += 1
                        bytes_hit += size
                        node.hit_token += 1
                        resized = node.size != size
                        if resized:
                            d = size - node.size
                            used += d
                            qbytes += d
                            node.size = size
                        prev = node.prev
                        nxt = node.next
                        prev.next = nxt
                        nxt.prev = prev
                        if always_mru:
                            to_mru = True
                        else:
                            flags = node.data or NORMAL
                            if flags & SUSPECT:
                                node.data = DEMOTED
                                to_mru = False
                                demotions += 1
                                if emit is not None:
                                    emit("episode_transition", key=key, to="DEMOTED")
                            else:
                                if flags & DEMOTED:
                                    conf[key] = max(conf.get(key, 0) - 2, -4)
                                    released += 1
                                    if emit is not None:
                                        emit("episode_transition", key=key, to="RELEASED")
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
                    else:
                        hit = False
                        if record:
                            misses += 1
                            bytes_missed += size
                        need = 0
                        admit = size <= capacity
                        entry = None
                        if not admit:
                            if record:
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
                                if emit is not None:
                                    emit("ghost_hit", list="m", key=key, hits=ghits, flag=gflag,
                                         age=clock - etime)
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
                                    if emit is not None:
                                        emit("ghost_hit", list="l", key=key, hits=ghits, flag=gflag,
                                             age=clock - etime)
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
                                if total <= 0.0:  # pragma: no cover - e^{-λ} keeps ω > 0
                                    w_mru = w_lru = 0.5
                                else:
                                    # normalise, then the exploration floor keeps
                                    # both experts alive (EXP3)
                                    w_mru /= total
                                    w_lru = 1.0 - w_mru
                                    if w_mru < 0.01:
                                        w_mru = 0.01
                                        w_lru = 1.0 - 0.01
                                    elif w_lru < 0.01:
                                        w_lru = 0.01
                                        w_mru = 1.0 - 0.01
                                if wemit is not None:
                                    wemit("weight_update", side="mru" if penalty == 1 else "lru",
                                          lam=lam, w_mru=w_mru, w_lru=w_lru)
                            if act == 1:
                                if escape_draw() < escape:
                                    to_mru = True
                                    escaped += 1
                                    if emit is not None:
                                        emit("episode_transition", key=key, to="ESCAPED")
                                else:
                                    to_mru = False
                                    iflags = DENIED
                                    denials += 1
                                    if emit is not None:
                                        emit("episode_transition", key=key, to="DENIED")
                            elif act == 2:
                                if escape_draw() < escape:
                                    escaped += 1
                                    if emit is not None:
                                        emit("episode_transition", key=key, to="ESCAPED")
                                else:
                                    iflags = SUSPECT
                                    suspects += 1
                                    if emit is not None:
                                        emit("episode_transition", key=key, to="SUSPECT")
                            if to_mru is None:
                                if threshold_mode:
                                    to_mru = w_mru > 0.5
                                else:
                                    to_mru = w_mru > select_draw()
                    if append is not None:
                        append(hit)
                    # Make room (an admission, or a hit whose object grew).
                    while used + need > capacity and index:
                        victim = sentinel.prev if choose is None else choose()
                        p = victim.prev
                        n = victim.next
                        p.next = n
                        n.prev = p
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
                        if on_evict is not None:
                            on_evict(victim)
                        if emit is not None:
                            emit("evict", key=vkey, size=vsize, hits=victim.hit_token or 0,
                                 mru=victim.inserted_mru)
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
                        if on_insert is not None:
                            on_insert(node)
                        if probe is not None:
                            if emit is not None:
                                emit("admit", key=key, size=size, mru=to_mru)
                            else:
                                admitted.append(size)
                    if clock >= boundary:
                        # UPDATELR, and the confidence map bounded to metadata scale.
                        self.clock = clock  # lr.update's own events are stamped with it
                        if folding:
                            counted = (ghost_m, hl_pops, demotions, released, escaped,
                                       denials, suspects, pen_mru + pen_lru)
                            self._fold(admitted, victims, pool,
                                       [c - f for c, f in zip(counted, folded)], w_mru, w_lru)
                            folded = counted
                        hit_rate = (hits - win_hits_from) / (clock - win_start)
                        lam = lr_update(hit_rate, self._prev_hit_rate)
                        decay = math.exp(-lam)
                        self._prev_hit_rate = hit_rate
                        win_start = self._win_start = clock
                        win_hits_from = self._win_hits_from = hits
                        boundary = clock + update_interval
                        if len(conf) > 4 * (len(hm_entries) + len(hl_entries)) + 4096:
                            known = set(hm_entries) | set(hl_entries) | set(index)
                            conf = self._pzro_conf = {
                                k: v for k, v in conf.items() if k in known
                            }
                if chunked:
                    if folding:
                        counted = (ghost_m, hl_pops, demotions, released, escaped,
                                   denials, suspects, pen_mru + pen_lru)
                        self._fold(admitted, victims, pool,
                                   [c - f for c, f in zip(counted, folded)], w_mru, w_lru)
                    return
                # One step: write back what it changed.
                if hit:
                    st.hits = hits
                    st.bytes_hit = bytes_hit
                    self.pzro_demotions = demotions
                    if resized or evictions != st.evictions:
                        self.used = used
                        queue.bytes = qbytes
                        queue._count = count
                        st.evictions = evictions
                        self._tenure_ewma = tenure
                else:
                    st.misses = misses
                    st.bytes_missed = bytes_missed
                    st.bypasses = bypasses
                    self.used = used
                    queue.bytes = qbytes
                    queue._count = count
                    st.evictions = evictions
                    self._tenure_ewma = tenure
                    if entry is not None:
                        self.ghost_hits_m = ghost_m
                        self.ghost_hits_l = ghost_l
                        self.zro_denials = denials
                        bandit.w_mru = w_mru
                        bandit.w_lru = w_lru
                        bandit.penalties_mru = pen_mru
                        bandit.penalties_lru = pen_lru
                decision = hit
        finally:
            # Parked, at the end of a chunk, or stopped by an exception: the
            # instance takes every local back.
            self.used = used
            self.clock = clock
            queue.bytes = qbytes
            queue._count = count
            st.hits, st.misses, st.bytes_hit = hits, misses, bytes_hit
            st.bytes_missed, st.evictions, st.bypasses = bytes_missed, evictions, bypasses
            self.ghost_hits_m, self.ghost_hits_l = ghost_m, ghost_l
            self.zro_denials, self.pzro_demotions = denials, demotions
            self._tenure_ewma = tenure
            bandit.w_mru, bandit.w_lru = w_mru, w_lru
            bandit.penalties_mru, bandit.penalties_lru = pen_mru, pen_lru
            # Cut pooled nodes loose so they don't pin ring neighbours.
            for n in pool:
                n.prev = None
                n.next = None
            if not chunked:
                self.__dict__.pop("_send", None)

    def _fold(self, admitted: list, victims: list, pool: list, counts: list,
              w_mru: float, w_lru: float) -> None:
        """Hand the folding probes what a chunk counted since the last fold —
        ``counts`` in the order ghost ``m``, ghost ``l``, DEMOTED, RELEASED,
        ESCAPED, DENIED, SUSPECT, penalties — with the admitted sizes and
        the victims, then let go of them: the victims join the ``pool``."""
        ghost_m, ghost_l, demoted, released, escaped, denied, suspected, penalties = counts
        probe = self._probe
        if probe is not None and probe.folds:
            probe.fold("admit", len(admitted), size=admitted)
            probe.fold(
                "evict",
                len(victims),
                size=[victim.size for victim in victims],
                hits=[victim.hit_token for victim in victims],
            )
            probe.fold("ghost_hit", ghost_m + ghost_l, list={"m": ghost_m, "l": ghost_l})
            episodes = {
                "DEMOTED": demoted,
                "RELEASED": released,
                "ESCAPED": escaped,
                "DENIED": denied,
                "SUSPECT": suspected,
            }
            probe.fold("episode_transition", sum(episodes.values()), to=episodes)
        bprobe = self.bandit._probe
        if bprobe is not None and bprobe.folds:
            # ω moves only under a penalty: the pair now is the last update's.
            bprobe.fold("weight_update", penalties, w_mru=w_mru, w_lru=w_lru)
        admitted.clear()
        pool.extend(victims)
        victims.clear()

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
