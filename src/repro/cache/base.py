"""Cache policy base classes.

Two layers:

* :class:`CachePolicy` — the abstract contract every algorithm implements:
  ``request(req) -> bool`` (hit or miss), byte-accurate capacity accounting,
  and built-in hit/miss counters so a policy can be used standalone.  The
  simulation engine keeps its own counters as well, so policies cannot
  misreport results.

* :class:`QueueCache` — the (large) family of policies whose resident set
  lives in a single recency queue, run by one resumable kernel that
  :meth:`~QueueCache.request` and :meth:`~QueueCache.replay_columns` both
  drive.  A policy states only its extension points: where a missing
  object goes (:attr:`~QueueCache._insert_position`), where a hit goes
  (:attr:`~QueueCache._on_hit`), which node to evict
  (:attr:`~QueueCache._choose_victim`, default: the LRU end), and what to
  observe on the way.  LIP, DIP, BIP, PIPP, SHiP, DTA, DAAIP, DGIPPR,
  ASC-IP, FIFO, LRU-K, LRB, LeCaR, CACHEUS, TinyLFU and AdaptSize are all
  expressible in this frame — SCIP and SCI supply a kernel of their own
  over the same drivers — which is exactly the point the paper makes: an
  insertion/promotion policy is orthogonal to victim selection.

Objects larger than the cache capacity are **bypassed** (never admitted),
matching CDN simulator convention — counting them as unavoidable misses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.cache.queue import LinkedQueue, Node
from repro.sim.request import Request

__all__ = ["CacheStats", "CachePolicy", "QueueCache", "MRU_POS", "LRU_POS"]

#: Placements a queue policy's hooks return (a resident node is the third).
MRU_POS = 1
LRU_POS = 0


class CacheStats:
    """Hit/miss counters in both object and byte units."""

    __slots__ = ("hits", "misses", "bytes_hit", "bytes_missed", "evictions", "bypasses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.bytes_hit = 0
        self.bytes_missed = 0
        self.evictions = 0
        self.bypasses = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Object miss ratio; 0.0 on an empty history."""
        n = self.requests
        return self.misses / n if n else 0.0

    @property
    def hit_ratio(self) -> float:
        n = self.requests
        return self.hits / n if n else 0.0

    @property
    def byte_miss_ratio(self) -> float:
        total = self.bytes_hit + self.bytes_missed
        return self.bytes_missed / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.bytes_hit = 0
        self.bytes_missed = 0
        self.evictions = 0
        self.bypasses = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "miss_ratio": self.miss_ratio,
            "byte_miss_ratio": self.byte_miss_ratio,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
        }


class CachePolicy(ABC):
    """Abstract cache replacement algorithm.

    Parameters
    ----------
    capacity:
        Cache capacity in bytes.  Must be positive.
    """

    #: Human-readable policy name used in experiment tables; subclasses set it.
    name: str = "abstract"

    #: Observability probe (:class:`repro.obs.probe.Probe`).  Class-level
    #: ``None`` is the module-level no-op: hook points cost exactly one
    #: ``if self._probe is not None`` branch until :meth:`attach_probe`
    #: shadows this with an instance attribute.
    _probe = None

    #: Whether decisions read ``Request.next_access``.  An oracle declares
    #: it: :func:`repro.sim.engine.simulate` annotates the trace for it, and
    #: a driver that streams a file refuses it (the future is not in the
    #: chunk at hand).
    needs_future: bool = False

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.used = 0
        self.stats = CacheStats()
        self.clock = 0  # logical time: number of requests processed

    # -- required interface --------------------------------------------------
    @abstractmethod
    def _lookup(self, key: int) -> bool:
        """Whether the key is resident (no side effects)."""

    def _hit(self, req: Request) -> None:
        """Handle a resident request (promotion, bookkeeping) for the
        :meth:`request` template; a policy that overrides :meth:`request`
        whole needs none."""
        raise NotImplementedError

    def _miss(self, req: Request) -> None:
        """Handle a missing request (admit/insert/evict as needed) for the
        :meth:`request` template and :meth:`admit`."""
        raise NotImplementedError

    # -- template -------------------------------------------------------------
    def request(self, req: Request) -> bool:
        """Process one request; return ``True`` on a cache hit."""
        self.clock += 1
        if self._lookup(req.key):
            self.stats.hits += 1
            self.stats.bytes_hit += req.size
            self._hit(req)
            return True
        self.stats.misses += 1
        self.stats.bytes_missed += req.size
        if req.size > self.capacity:
            self.stats.bypasses += 1
        else:
            self._miss(req)
        return False

    def contains(self, key: int) -> bool:
        """Public residency probe (no state change)."""
        return self._lookup(key)

    # -- observability -----------------------------------------------------------
    def attach_probe(self, probe) -> None:
        """Attach an observability probe (:class:`repro.obs.probe.Probe`).

        Hook points (``admit``, ``evict``, policy-specific learner events)
        start emitting.  A queue policy's kernel has the emit sites, so
        both of its drivers emit one record per event; SCIP's kernel, over
        a chunk, instead reports aggregates to a probe whose sinks all take
        them (:attr:`Probe.folds <repro.obs.probe.Probe.folds>`).  The
        decision sequence is unchanged either way — the golden-trace suite
        pins replay-with-probe against the recorded traces.

        A probe without a clock source borrows this policy's until
        :meth:`detach_probe`.
        """
        self._probe = probe
        if probe.now is None:
            probe.now = self._probe_clock

    def detach_probe(self) -> None:
        """Remove the probe; hook points return to the single-branch no-op.

        The clock :meth:`attach_probe` lent goes with it (a caller-supplied
        ``now=`` stays): a probe moved to another policy must not stamp its
        events with this one's stopped clock, nor keep it alive.
        """
        probe = self._probe
        if probe is not None and probe.now == self._probe_clock:
            probe.now = None
        self._probe = None

    def _probe_clock(self) -> int:
        return self.clock

    def replay(self, requests, out: Optional[list] = None) -> None:
        """Process a whole request sequence (the engine's bulk hot path).

        Equivalent to calling :meth:`request` once per element, but with the
        per-request dispatch hoisted out of the loop.  When ``out`` is given,
        the per-request hit/miss booleans are appended to it (the golden-trace
        tests use this to pin the exact decision sequence).  Aggregate
        outcomes are read from :attr:`stats` deltas.

        Subclasses may override with a faster loop **only if** it stays
        bit-identical to the per-request path — the equivalence suite in
        ``tests/sim/test_golden_traces.py`` enforces this.
        """
        request = self.request
        if out is None:
            for req in requests:
                request(req)
        else:
            append = out.append
            for req in requests:
                append(request(req))

    def replay_columns(self, keys: list, sizes: list, out: Optional[list] = None) -> None:
        """Replay parallel ``keys``/``sizes`` lists (a trace chunk's columns).

        The bulk contract every driver above the policies feeds: what
        :meth:`replay` does for a request sequence, for a sequence nobody
        has to build — each ``Request`` exists for the one :meth:`request`
        call that reads it, stamped with the policy's own clock, so a file
        of any length replays in the memory of one chunk.  Subclasses
        override with an inlined loop under the same rule as :meth:`replay`.
        """
        if len(keys) != len(sizes):
            raise ValueError(f"keys/sizes length mismatch: {len(keys)} vs {len(sizes)}")
        request = self.request
        if out is None:
            for key, size in zip(keys, sizes):
                request(Request(self.clock, key, size))
        else:
            append = out.append
            for key, size in zip(keys, sizes):
                append(request(Request(self.clock, key, size)))

    # -- resident-set portability -------------------------------------------
    def export_residents(self):
        """Yield ``(key, size)`` for every resident object, coldest first.

        The duck-typed warm-handoff/migration protocol: live policy swaps
        (:meth:`repro.serve.shard.CacheShard._swap`) and cluster warm
        handoffs replay the exported pairs into the successor via
        :meth:`import_resident`, so composite policies (per-tenant
        partitions) migrate state without the caller knowing their
        internals.  The base class has no resident structure to walk and
        exports nothing — migration degrades to a cold start, which is the
        pre-protocol behaviour for non-queue policies.
        """
        return iter(())

    def import_resident(self, key: int, size: int) -> bool:
        """Take one exported object from a predecessor's resident set.

        Migration is opt-in: the base class refuses, so swapping onto a
        policy with no migration story (priority structures whose state a
        bare ``(key, size)`` pair cannot reconstruct) stays a cold
        restart — the pre-protocol behaviour.  Queue policies and
        composite partitions override with :meth:`admit`.
        """
        return False

    def admit(self, key: int, size: int) -> bool:
        """Admit one object through the normal miss path, off the record.

        Insertion position, evictions and capacity accounting all apply,
        but no hit/miss is counted — a replication fill or a migration is
        not traffic.  Works for every policy (it touches only the template's
        own pieces).  ``True`` if the miss path ran (a policy with an
        admission filter may still decline there), ``False`` if the object
        is already resident or larger than the cache.
        """
        if size > self.capacity or self._lookup(key):
            return False
        self._miss(Request(self.clock, key, size))
        return True

    # -- introspection ----------------------------------------------------------
    def __len__(self) -> int:
        """Number of resident objects (subclasses with queues override)."""
        raise NotImplementedError

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used

    def metadata_bytes(self) -> int:
        """Estimated metadata footprint in bytes, for the Fig 9/11 memory
        comparison.  Subclasses refine; the default charges the paper's
        110-byte inode per resident object."""
        return 110 * len(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(capacity={self.capacity}, used={self.used})"


#: The key slot of a kernel message that is not a recorded request: the
#: size slot then holds an off-record ``(key, size)`` step, or ``None`` to park.
_CONTROL = object()
_PARK = (_CONTROL, None)


class QueueCache(CachePolicy):
    """Base for single-recency-queue policies: one kernel does every link,
    unlink and count, and a policy says only where nodes go.

    The extension points are class attributes, ``None`` unless a class sets
    them.  A placement ("where") is ``MRU_POS``, ``LRU_POS`` or a resident
    node to link immediately toward-MRU of; a hit's own node leaves it in
    place.

    * :attr:`_on_access` ``(key, size)`` — before each recorded request,
      ``self.clock`` not yet advanced;
    * :attr:`_on_hit` ``(node) -> where`` — after the hit token and any
      resize; ``None`` promotes to MRU;
    * :attr:`_before_admit` ``(key, size) -> bool`` — on a miss that fits,
      before any eviction; ``False`` declines the object (a bypass);
    * :attr:`_choose_victim` ``() -> Node`` — ``None`` evicts the LRU end;
    * :attr:`_on_evict` ``(node)`` — after a victim has left (the kernel
      recycles it for a later insert: a hook keeps its fields, or checks a
      kept node against the index);
    * :attr:`_insert_position` ``(key, size) -> where`` — after the
      evictions; ``None`` inserts at MRU;
    * :attr:`_on_insert` ``(node)`` — after a new node is linked;
    * :attr:`_after_request` ``(hit)`` — after each recorded request.

    The kernel leaves ``inserted_mru`` alone on a hit (a hook may set it),
    and ``used``, ``len(queue)`` and ``clock`` are current whenever a hook
    reads them.  :class:`~repro.core.scip.SCIPCache` supplies a kernel of
    its own, run by the same drivers, that reads ``_on_access``,
    ``_choose_victim``, ``_on_evict`` and ``_on_insert`` with the same
    meaning.
    """

    _on_access = None
    _on_hit = None
    _before_admit = None
    _choose_victim = None
    _on_evict = None
    _insert_position = None
    _on_insert = None
    _after_request = None

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self.queue = LinkedQueue()
        self.index: dict = {}

    def _lookup(self, key: int) -> bool:
        return key in self.index

    def __len__(self) -> int:
        return len(self.index)

    # -- observability -------------------------------------------------------------
    def attach_probe(self, probe) -> None:
        self._park()
        super().attach_probe(probe)

    def detach_probe(self) -> None:
        self._park()
        super().detach_probe()

    # -- the drivers ---------------------------------------------------------------
    def request(self, req: Request) -> bool:
        return self._send((req.key, req.size))

    def _send(self, message):
        """Prime a kernel from instance state and hand it ``message``.  While
        it lives, ``self._send`` is the kernel's own ``send``."""
        kernel = self._kernel()
        next(kernel)
        self._send = kernel.send
        return kernel.send(message)

    def _park(self) -> None:
        """Stop the live kernel, if any, with every field written back; the
        next message primes a new one from instance state.  Out-of-band
        writes (:meth:`remove`, a probe change, a chunk replay) park first;
        the kernel reads ``capacity`` afresh on every message."""
        send = self.__dict__.get("_send")
        if send is not None:
            try:
                send(_PARK)
            except StopIteration:
                pass

    def admit(self, key: int, size: int) -> bool:
        """:meth:`CachePolicy.admit` as an off-record step of the kernel: the
        pre-admission step, the evictions and the insert all run, at the
        current clock, with no request counted."""
        if size > self.capacity or key in self.index:
            return False
        self._send((_CONTROL, (key, size)))
        return True

    def remove(self, key: int) -> Optional[Node]:
        """Silently remove a resident object (paper's ``C.REMOVE``): the node
        leaves the cache *without* being recorded as an eviction — promotion
        in Algorithm 1 is remove-then-insert and must not pollute the
        history lists."""
        self._park()
        node = self.index.pop(key, None)
        if node is None:
            return None
        self.queue.unlink(node)
        self.used -= node.size
        return node

    def _make_room(self, need: int) -> None:
        """Evict by the policy's rule down to its capacity (``need`` must be
        0: how a quota shrink calls it) — an off-record step of an object
        too large to admit, whose bypass touches nothing but the eviction
        loop."""
        if need:
            raise ValueError(f"a queue policy makes room only down to capacity, got need={need}")
        self._send((_CONTROL, (_CONTROL, self.capacity + 1)))

    def replay(self, requests, out: Optional[list] = None) -> None:
        if not isinstance(requests, (list, tuple)):
            requests = list(requests)
        self.replay_columns([r.key for r in requests], [r.size for r in requests], out)

    def replay_columns(self, keys: list, sizes: list, out: Optional[list] = None) -> None:
        """Replay parallel ``keys``/``sizes`` lists (a trace chunk's columns):
        the kernel's body run over them in one loop, counters in locals
        written back at the end, so a trace split across calls equals one
        call and equals one :meth:`request` per element."""
        if len(keys) != len(sizes):
            raise ValueError(f"keys/sizes length mismatch: {len(keys)} vs {len(sizes)}")
        self._park()
        for _ in self._kernel(keys, sizes, out):
            pass

    # -- the kernel ----------------------------------------------------------------
    def _kernel(self, keys: Optional[list] = None, sizes=None, out: Optional[list] = None):
        """The queue policy, stated once.

        A generator holding the policy's state in locals.  Driven per
        request (``keys`` is ``None``), it yields each decision and takes
        the next message: ``(key, size)`` is a recorded request,
        ``(_CONTROL, (key, size))`` an off-record step (an admission no
        request counts; with the size over capacity, only the eviction
        loop), ``_PARK`` stops it.  After each step it writes back what the
        step changed.  Driven by columns, it runs the same body over the
        chunk and returns; everything is written back when it ends.

        Per request, in this order: the access callback; on a hit the
        token, the resize and the promotion; on a miss the pre-admission
        step; then evictions by the victim chooser — to room for an
        admitted object, or to capacity after a hit that grew — with an
        evict callback and an ``evict`` record per victim; then the
        admitted object's position, link, insert callback and ``admit``
        record; then the post-request callback.
        """
        chunked = keys is not None
        index = self.index
        index_get = index.get
        queue = self.queue
        sentinel = queue._sentinel
        node_cls = Node
        control = _CONTROL
        mru = MRU_POS
        lru = LRU_POS
        access = self._on_access
        promote = self._on_hit
        screen = self._before_admit
        choose = self._choose_victim
        on_evict = self._on_evict
        position = self._insert_position
        on_insert = self._on_insert
        after = self._after_request
        probe = self._probe
        emit = probe.emit if probe is not None else None
        # A hook may read used and len(queue): each change is then written
        # through as it happens.
        hooked = not (
            access is None and promote is None and screen is None and choose is None
            and on_evict is None and position is None and on_insert is None and after is None
        )
        observed = hooked or emit is not None
        # A step keeps self.clock current unless nothing reads it mid-chunk;
        # such a chunk records every request, so its clock is counted at the
        # end (a per-request add allocates: the clock is past the small ints).
        plain = chunked and not observed
        # Local mirrors of instance state.  The queue's own byte and node
        # counts are ``used`` and ``len(index)``, written back with them.
        st = self.stats
        capacity = self.capacity
        used = self.used
        clock = self.clock
        hits, misses, bytes_hit = st.hits, st.misses, st.bytes_hit
        bytes_missed, evictions, bypasses = st.bytes_missed, st.evictions, st.bypasses
        unclocked = hits + misses if plain else None
        # Evicted nodes are recycled for later inserts: a steady-state replay
        # then allocates ~zero objects per request.
        pool: list = []
        pool_pop = pool.pop
        pool_append = pool.append
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
                    if not plain and record:
                        if access is not None:
                            access(key, size)
                        clock += 1
                        self.clock = clock
                    node = index_get(key)
                    if node is not None:
                        hit = True
                        admit = False
                        need = 0
                        hits += 1
                        bytes_hit += size
                        node.hit_token += 1  # per-residency hit count
                        if node.size != size:
                            # The object changed at the origin; a growth evicts below.
                            d = size - node.size
                            used += d
                            node.size = size
                            if hooked:
                                self.used = queue.bytes = used
                        where = mru if promote is None else promote(node)
                        if where is not node:
                            prev = node.prev
                            nxt = node.next
                            prev.next = nxt
                            nxt.prev = prev
                            anchor = (sentinel.next if where == mru
                                      else sentinel if where == lru else where)
                            prev = anchor.prev
                            node.prev = prev
                            node.next = anchor
                            prev.next = node
                            anchor.prev = node
                    else:
                        hit = False
                        if record:
                            misses += 1
                            bytes_missed += size
                        if size > capacity:
                            admit = False
                            need = 0
                            if record:
                                bypasses += 1
                        elif screen is None or screen(key, size):
                            admit = True
                            need = size
                        else:
                            admit = False
                            need = 0
                            bypasses += 1
                    if append is not None:
                        append(hit)
                    while used + need > capacity and index:
                        victim = sentinel.prev if choose is None else choose()
                        prev = victim.prev
                        nxt = victim.next
                        prev.next = nxt
                        nxt.prev = prev
                        vsize = victim.size
                        del index[victim.key]
                        used -= vsize
                        evictions += 1
                        if observed:
                            if hooked:
                                self.used = queue.bytes = used
                                queue._count = len(index)
                            if on_evict is not None:
                                on_evict(victim)
                            if emit is not None:
                                emit("evict", key=victim.key, size=vsize, hits=victim.hit_token,
                                     mru=victim.inserted_mru)
                        pool_append(victim)
                    if admit:
                        if position is None:
                            to_mru = True
                            anchor = sentinel.next
                        else:
                            where = position(key, size)
                            to_mru = where == mru
                            anchor = (sentinel.next if to_mru
                                      else sentinel if where == lru else where)
                        if pool:
                            node = pool_pop()
                            node.key = key
                            node.size = size
                            node.hit_token = 0
                            node.data = None
                            node.stamp = 0
                        else:
                            node = node_cls(key, size)
                        node.inserted_mru = to_mru
                        prev = anchor.prev
                        node.prev = prev
                        node.next = anchor
                        prev.next = node
                        anchor.prev = node
                        index[key] = node
                        used += size
                        if observed:
                            if hooked:
                                self.used = queue.bytes = used
                                queue._count = len(index)
                            if on_insert is not None:
                                on_insert(node)
                            if emit is not None:
                                emit("admit", key=key, size=size, mru=to_mru)
                    if after is not None and record:
                        after(hit)
                if chunked:
                    return
                # One step: write back what it changed.
                if hit:
                    st.hits = hits
                    st.bytes_hit = bytes_hit
                else:
                    st.misses = misses
                    st.bytes_missed = bytes_missed
                    st.bypasses = bypasses
                st.evictions = evictions
                self.used = queue.bytes = used
                queue._count = len(index)
                decision = hit
        finally:
            # Parked, at the end of a chunk, or stopped by an exception: the
            # instance takes every local back.
            if plain:
                clock += hits + misses - unclocked
            self.used = queue.bytes = used
            queue._count = len(index)
            self.clock = clock
            st.hits, st.misses, st.bytes_hit = hits, misses, bytes_hit
            st.bytes_missed, st.evictions, st.bypasses = bytes_missed, evictions, bypasses
            # Cut pooled nodes loose so they don't pin ring neighbours.
            for n in pool:
                n.prev = None
                n.next = None
            if not chunked:
                self.__dict__.pop("_send", None)

    # -- introspection ----------------------------------------------------------
    def resident_keys(self) -> list:
        """Keys MRU → LRU (diagnostics / tests)."""
        return self.queue.keys()

    def export_residents(self):
        """Yield ``(key, size)`` LRU → MRU: replaying the export through
        :meth:`import_resident` reconstructs recency order in the
        successor."""
        for node in self.queue.iter_lru():
            yield node.key, node.size

    def import_resident(self, key: int, size: int) -> bool:
        """:meth:`admit` it: fed an LRU → MRU export, the miss path
        rebuilds the queue."""
        return self.admit(key, size)

    def check_invariants(self) -> None:
        """Structural self-check used by property tests."""
        self.queue.check_invariants()
        assert len(self.index) == len(self.queue), "index/queue count mismatch"
        assert self.used == self.queue.bytes, "byte accounting mismatch"
        assert self.used <= self.capacity, "capacity overflow"
        for key, node in self.index.items():
            assert node.key == key, "index key mismatch"
