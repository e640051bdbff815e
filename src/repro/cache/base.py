"""Cache policy base classes.

Two layers:

* :class:`CachePolicy` — the abstract contract every algorithm implements:
  ``request(req) -> bool`` (hit or miss), byte-accurate capacity accounting,
  and built-in hit/miss counters so a policy can be used standalone.  The
  simulation engine keeps its own counters as well, so policies cannot
  misreport results.

* :class:`QueueCache` — shared machinery for the (large) family of policies
  whose resident set lives in a single recency queue and whose behaviour is
  defined by three hooks: where to insert a missing object
  (:meth:`_insert_position`), what to do on a hit (:meth:`_on_hit`), and which
  node to evict (:meth:`_choose_victim`, default: the LRU end).  LIP, DIP,
  BIP, PIPP, SHiP, DTA, DAAIP, DGIPPR, ASC-IP, SCI and SCIP are all
  expressible in this frame, which is exactly the point the paper makes:
  an insertion/promotion policy is orthogonal to victim selection.

Objects larger than the cache capacity are **bypassed** (never admitted),
matching CDN simulator convention — counting them as unavoidable misses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.cache.queue import LinkedQueue, Node
from repro.sim.request import Request

__all__ = ["CacheStats", "CachePolicy", "QueueCache", "MRU_POS", "LRU_POS"]

#: Insertion-position constants used by bimodal policies.
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

    @abstractmethod
    def _hit(self, req: Request) -> None:
        """Handle a resident request (promotion, bookkeeping)."""

    @abstractmethod
    def _miss(self, req: Request) -> None:
        """Handle a missing request (admit/insert/evict as needed)."""

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
        start emitting.  LRU's inlined loop passes the hooks by, so it
        drops back to the instrumented per-request path until
        :meth:`detach_probe`; SCIP's kernel has emit sites of its own, and
        over a chunk it reports aggregates to a probe whose sinks all take
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


class QueueCache(CachePolicy):
    """Base for single-recency-queue policies with pluggable insertion,
    promotion and victim-selection hooks.

    Subclasses typically override only:

    * :meth:`_insert_position` → ``MRU_POS`` or ``LRU_POS`` for a missing
      object (called once per admitted miss);
    * :meth:`_on_hit` → promotion behaviour (default: classic move-to-MRU);
    * :meth:`_on_evict` → observe the victim node (adaptive policies learn
      from eviction outcomes here);
    * :meth:`_choose_victim` → non-LRU victim selection (LRU-K, LRB, …).
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self.queue = LinkedQueue()
        self.index: dict = {}

    # -- hooks ------------------------------------------------------------------
    def _insert_position(self, req: Request) -> int:
        """Insertion position for a missing object; default MRU (LRU policy)."""
        return MRU_POS

    def _on_hit(self, node: Node, req: Request) -> None:
        """Hit handling; default classic LRU promotion."""
        self.queue.move_to_mru(node)

    def _on_evict(self, node: Node) -> None:
        """Observe an evicted node (ghost lists, threshold adaptation, …)."""

    def _on_insert(self, node: Node, req: Request) -> None:
        """Observe a newly inserted node (predictors initialise state here)."""

    def _choose_victim(self) -> Node:
        """Pick the eviction victim; default the LRU-end node."""
        tail = self.queue.tail
        assert tail is not None
        return tail

    # -- CachePolicy implementation ----------------------------------------------
    def _lookup(self, key: int) -> bool:
        return key in self.index

    def _hit(self, req: Request) -> None:
        node = self.index[req.key]
        node.hit_token = (node.hit_token or 0) + 1  # per-residency hit count
        if node.size != req.size:
            # Object was updated at the origin; account the size change.
            self.used += req.size - node.size
            self.queue.bytes += req.size - node.size
            node.size = req.size
        self._on_hit(node, req)
        # A grown object may have pushed the cache over capacity.
        if self.used > self.capacity:
            self._make_room(0)

    def _miss(self, req: Request) -> None:
        self._make_room(req.size)
        node = Node(req.key, req.size)
        pos = self._insert_position(req)
        node.inserted_mru = pos == MRU_POS
        if node.inserted_mru:
            self.queue.push_mru(node)
        else:
            self.queue.push_lru(node)
        self.index[req.key] = node
        self.used += req.size
        self._on_insert(node, req)
        if self._probe is not None:
            self._probe.emit(
                "admit", key=req.key, size=req.size, mru=node.inserted_mru
            )

    def _make_room(self, need: int) -> None:
        while self.used + need > self.capacity and self.index:
            victim = self._choose_victim()
            self.evict_node(victim)

    def evict_node(self, node: Node) -> None:
        """Evict a specific resident node, firing the observation hook."""
        self.queue.unlink(node)
        del self.index[node.key]
        self.used -= node.size
        self.stats.evictions += 1
        self._on_evict(node)
        if self._probe is not None:
            self._probe.emit(
                "evict",
                key=node.key,
                size=node.size,
                hits=node.hit_token or 0,
                mru=node.inserted_mru,
            )

    def remove(self, key: int) -> Optional[Node]:
        """Silently remove a resident object (paper's ``C.REMOVE``): the node
        leaves the cache *without* being recorded as an eviction — promotion
        in Algorithm 1 is remove-then-insert and must not pollute the
        history lists."""
        node = self.index.pop(key, None)
        if node is None:
            return None
        self.queue.unlink(node)
        self.used -= node.size
        return node

    def __len__(self) -> int:
        return len(self.index)

    # -- bulk replay fast path -------------------------------------------------
    def _fast_replay_eligible(self) -> bool:
        """Whether this instance runs the stock template end to end.

        The inlined loop in :meth:`replay_columns` reproduces the *default*
        ``request``/``_hit``/``_miss``/eviction plumbing with all state held
        in locals; any override could observe stale instance state mid-loop,
        so the fast loop only engages when every overridable piece is the
        base-class original (pure LRU).  Everything else falls back to the
        generic bound-method loop.

        An attached probe also disqualifies the instance: the inlined loop
        bypasses the ``admit``/``evict`` hook points, so tracing selects the
        instrumented per-request path instead (decision-identical; the
        bare loop itself stays branch-free).
        """
        if self._probe is not None:
            return False
        cls = type(self)
        return (
            cls.request is CachePolicy.request
            and cls._lookup is QueueCache._lookup
            and cls._hit is QueueCache._hit
            and cls._miss is QueueCache._miss
            and cls._make_room is QueueCache._make_room
            and cls.evict_node is QueueCache.evict_node
            and cls._insert_position is QueueCache._insert_position
            and cls._on_hit is QueueCache._on_hit
            and cls._on_evict is QueueCache._on_evict
            and cls._on_insert is QueueCache._on_insert
            and cls._choose_victim is QueueCache._choose_victim
        )

    def replay(self, requests, out: Optional[list] = None) -> None:
        """Bulk replay; bit-identical to per-request :meth:`request` calls.

        An instance :meth:`_fast_replay_eligible` admits hands the inlined
        loop of :meth:`replay_columns` the two columns it reads; any other
        walks the requests it was given.
        """
        if not self._fast_replay_eligible():
            return CachePolicy.replay(self, requests, out)
        if not isinstance(requests, (list, tuple)):
            requests = list(requests)
        self.replay_columns([r.key for r in requests], [r.size for r in requests], out)

    def replay_columns(self, keys: list, sizes: list, out: Optional[list] = None) -> None:
        """:meth:`CachePolicy.replay_columns`, inlined for the default template.

        For classic LRU the whole lookup→promote / make-room→insert cycle
        is one loop: no ``Request``, no method dispatch, queue pointers
        spliced directly, counters accumulated in locals and folded back
        into ``stats``/``queue`` state once at the end.  This is the ~3×
        engine speedup the ladder tracks; the golden-trace suite pins its
        equivalence.
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
        # Loop-local mirrors of instance state, folded back after the loop.
        used = self.used
        qbytes = queue.bytes
        count = queue._count
        hits = misses = bytes_hit = bytes_missed = evictions = bypasses = 0
        # Evicted nodes are recycled for subsequent inserts: a steady-state
        # replay then allocates ~zero objects per request.  Pooled nodes are
        # unreachable (removed from the index) so reuse is unobservable.
        pool: list = []
        pool_pop = pool.pop
        pool_append = pool.append
        for key, size in zip(keys, sizes):
            node = index_get(key)
            if node is not None:
                # Hit: account, bump the residency token, splice to MRU.
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
                head = sentinel.next
                node.prev = sentinel
                node.next = head
                head.prev = node
                sentinel.next = node
                # A grown object may have pushed the cache over capacity.
                while used > capacity and index:
                    victim = sentinel.prev
                    p = victim.prev
                    p.next = sentinel
                    sentinel.prev = p
                    count -= 1
                    qbytes -= victim.size
                    del index[victim.key]
                    used -= victim.size
                    evictions += 1
                    pool_append(victim)
                if append is not None:
                    append(True)
            else:
                misses += 1
                bytes_missed += size
                if size > capacity:
                    bypasses += 1
                else:
                    while used + size > capacity and index:
                        victim = sentinel.prev
                        p = victim.prev
                        p.next = sentinel
                        sentinel.prev = p
                        count -= 1
                        qbytes -= victim.size
                        del index[victim.key]
                        used -= victim.size
                        evictions += 1
                        pool_append(victim)
                    if pool:
                        node = pool_pop()
                        node.key = key
                        node.size = size
                        node.inserted_mru = True
                        node.hit_token = 0
                        node.data = None
                        node.stamp = 0
                    else:
                        node = node_cls(key, size)
                    head = sentinel.next
                    node.prev = sentinel
                    node.next = head
                    head.prev = node
                    sentinel.next = node
                    count += 1
                    qbytes += size
                    index[key] = node
                    used += size
                if append is not None:
                    append(False)
        # Cut leftover pooled nodes loose so they don't pin ring neighbours.
        for n in pool:
            n.prev = None
            n.next = None
        self.used = used
        self.clock += hits + misses
        queue.bytes = qbytes
        queue._count = count
        st = self.stats
        st.hits += hits
        st.misses += misses
        st.bytes_hit += bytes_hit
        st.bytes_missed += bytes_missed
        st.evictions += evictions
        st.bypasses += bypasses

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
