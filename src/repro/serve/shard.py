"""One cache shard: a single-owner policy decided in the caller.

Concurrency model — the whole point of the design:

* **The cache decision runs in the caller, at once.**  Everything lives on
  one event loop and the decision (lookup → hit/miss → admit/evict) is one
  synchronous block with no ``await`` in it, so it cannot interleave with
  another decision: policy internals (intrusive queue splices, SCIP's
  bandit state) need no lock, no queue and no worker task.  The decision
  sequence for a given arrival order is exactly what
  :meth:`repro.cache.base.CachePolicy.request` produces, which is what
  pins serve↔engine equivalence.  Swap, fill and quota changes are
  synchronous methods for the same reason: they run when called, between
  decisions by construction.
* **A hit never suspends.**  ``get`` on a resident key returns its
  :class:`ServeOutcome` without a future and without yielding to the loop.
* **The leader fetches in its own task.**  A miss leases the key's
  single-flight generation; the leader awaits ``fetch_with_retry`` right
  there, in the caller's task, and closes the generation; followers chain
  a future on it.  A slow origin suspends only the callers waiting for
  that key.  A detached task exists only as the hand-over when a leader is
  cancelled mid-fetch.
* **Backpressure is the unanswered bound.**  ``queue_depth`` bounds the
  requests the shard holds *unanswered* (decided, waiting on an origin
  fetch).  At the bound a request is **shed** before the policy sees it —
  counted, surfaced to the caller as a ``shed`` outcome, hits included (a
  shed request must not perturb cache state).

Failure containment: a terminal origin failure (after retries) resolves
every coalesced waiter with an error outcome and silently removes the
object's metadata from the policy (it was admitted write-on-miss but the
body never arrived), so the next request starts a fresh fetch generation.
A policy bug degrades one request and increments
``serve_unhandled_exceptions`` instead of unwinding the caller.
"""

from __future__ import annotations

import asyncio
import random
from typing import Tuple, Union

from repro.cache.base import CachePolicy
from repro.serve.coalesce import SingleFlight
from repro.serve.origin import FetchOutcome, RetryPolicy, SimulatedOrigin, fetch_with_retry
from repro.serve.results import ServeMetrics, ServeOutcome
from repro.sim.request import Request

__all__ = ["CacheShard"]


class CacheShard:
    """A key-shard of the service: one policy, one single-flight map.

    A shard partitions keys and capacity, not CPU: every shard of a service
    decides on the same event loop.

    Parameters
    ----------
    shard_id:
        Index within the service (metric label, outcome field).
    policy:
        The shard's private :class:`~repro.cache.base.CachePolicy`; nothing
        else may touch it.
    origin, retry:
        Shared origin backend and the client-side retry policy.
    metrics:
        The service-wide :class:`~repro.serve.results.ServeMetrics` bundle.
    queue_depth:
        Bound on requests held unanswered — decided and waiting on an
        origin fetch (0 = unbounded, no shedding).
    probe:
        Optional :class:`repro.obs.probe.Probe` for ``fetch`` /
        ``fetch_retry`` / ``fetch_error`` / ``shed`` events.
    seed:
        Seeds the backoff-jitter RNG (decorrelated per shard).
    """

    def __init__(
        self,
        shard_id: int,
        policy: CachePolicy,
        origin: SimulatedOrigin,
        retry: RetryPolicy,
        metrics: ServeMetrics,
        queue_depth: int = 1024,
        probe=None,
        seed: int = 0,
    ):
        self.shard_id = shard_id
        self.policy = policy
        self.origin = origin
        self.retry = retry
        self.metrics = metrics
        self.probe = probe
        self.queue_depth = max(queue_depth, 0)
        #: requests decided but not yet answered (waiting on a fetch).
        self.unanswered = 0
        self.flight = SingleFlight()
        self.shed_count = 0
        self._shed_counter = metrics.shard_shed(shard_id)
        self._rng = random.Random((seed * 2654435761 + shard_id) & 0xFFFFFFFF)
        self._detached: set = set()

    # -- lifecycle ---------------------------------------------------------
    async def close(self) -> None:
        """Settle every open fetch generation and detached fetch task."""
        flight = self.flight
        while len(flight) or self._detached:
            # ``wait``, not ``gather``: cancelling ``close`` must not cancel
            # a generation other callers are waiting on.
            await asyncio.wait(
                [flight.peek(key) for key in flight.inflight_keys()] + list(self._detached)
            )

    # -- the cache decision (synchronous) ----------------------------------
    def _decide(
        self, req: Request, span=None
    ) -> Union[ServeOutcome, Tuple[bool, asyncio.Future, bool]]:
        """One complete cache decision — synchronous, single-owner.

        Returns the request's :class:`ServeOutcome` when it is answered at
        once (shed, plain hit, policy bug), else ``(hit, lease, leader)``:
        the body is on the wire under ``lease`` and, if ``leader``, the
        caller owes the fetch.

        Span topology: ``queue_wait`` is closed where it is opened (there
        is no queue; status ``shed`` marks a shed request); a ``policy``
        child wraps the cache decision; a follower/late-hit gets a
        ``flight_wait`` child closed when the flight resolves; the
        single-flight *leader* instead parents the ``origin_fetch`` child —
        never both, so stage critical paths don't double-count the same
        wall time.
        """
        m = self.metrics
        shard_id = self.shard_id
        if self.queue_depth and self.unanswered >= self.queue_depth:
            self.shed_count += 1
            m.shed.inc()
            self._shed_counter.inc()
            if span is not None:
                span.child("queue_wait", shard=shard_id).end("shed")
            if self.probe is not None:
                self.probe.emit("shed", key=req.key, shard=shard_id)
            return ServeOutcome(False, shed=True, shard=shard_id)
        try:
            if span is not None:
                span.child("queue_wait", shard=shard_id).end()
                pspan = span.child("policy", shard=shard_id)
                hit = self.policy.request(req)
                pspan.end(hit=hit)
            else:
                hit = self.policy.request(req)
        except Exception as exc:  # a policy bug must not unwind the caller
            m.unhandled.inc()
            return ServeOutcome(False, error=f"internal: {exc!r}", shard=shard_id)
        if hit:
            m.hits.inc()
            # Metadata may be resident while the body is still on the wire
            # from an earlier miss: then wait for that same fetch.
            pending = self.flight.join(req.key)
            if pending is None:
                return ServeOutcome(True, shard=shard_id)
            return True, pending, False
        m.misses.inc()
        lease, leader = self.flight.lease(req.key)
        return False, lease, leader

    async def get(self, req: Request, span=None) -> ServeOutcome:
        """Decide ``req`` now, in the caller; suspend only to wait for a body.

        A hit (and a shed) returns without yielding to the loop.  A leader
        runs the origin fetch in this task; if the task is cancelled
        mid-fetch a detached task takes the fetch over, so followers get
        their body and the write-on-miss metadata is backed or removed.
        """
        decided = self._decide(req, span)
        if isinstance(decided, ServeOutcome):
            return decided
        hit, lease, leader = decided
        self.unanswered += 1
        try:
            if not leader:
                return await self._chain(lease, hit, span)
            try:
                outcome = await self._lead(req.key, req.size, span)
            except asyncio.CancelledError:
                self._detach(req.key, req.size, span)
                raise
            if outcome.error is not None:
                self.metrics.errors.inc()
            return ServeOutcome(False, error=outcome.error, shard=self.shard_id)
        finally:
            self.unanswered -= 1

    def _chain(
        self, lease: asyncio.Future, hit: bool, span=None
    ) -> "asyncio.Future[ServeOutcome]":
        """A coalesced waiter's future, resolved from the flight's terminal
        :class:`FetchOutcome`.

        The waiter gets its own future: awaiting ``lease`` directly would
        let one cancelled waiter cancel the generation for all of them.
        """
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        m = self.metrics
        shard_id = self.shard_id
        m.coalesced.inc()
        wspan = span.child("flight_wait", coalesced=True) if span is not None else None

        def _done(f: asyncio.Future) -> None:
            outcome: FetchOutcome = f.result()
            if wspan is not None:
                wspan.end("ok" if outcome.error is None else "error")
            if fut.done():  # the waiter went away (cancelled)
                return
            if outcome.error is not None:
                m.errors.inc()
            fut.set_result(
                ServeOutcome(hit, coalesced=True, error=outcome.error, shard=shard_id)
            )

        lease.add_done_callback(_done)
        return fut

    # -- live policy swap --------------------------------------------------
    def swap(self, factory, span=None) -> CachePolicy:
        """Hot-swap the shard policy; returns the new policy.

        Synchronous, so it runs between complete cache decisions: requests
        decided before the call were answered by the old policy, requests
        after it by the new one.
        Mirrors :meth:`repro.tdc.node.StorageNode.swap_policy`: the old
        policy's resident set migrates through the duck-typed
        ``export_residents`` / ``import_resident`` protocol (queue policies
        export LRU → MRU so recency order is reconstructed; composite
        tenancy partitions export per-tenant; policies without a resident
        structure export nothing and the successor starts cold — no origin
        refill either way).  In-flight fetches are untouched — the
        single-flight map is shard state, not policy state, so coalesced
        waiters resolve against the same generation regardless of which
        policy admitted the key.  ``span``, if any, parents the
        ``policy_swap`` span recorded around the migration.
        """
        sspan = (
            span.child("policy_swap", shard=self.shard_id)
            if span is not None
            else None
        )
        old = self.policy
        new = factory(old.capacity)
        migrated = 0
        for key, size in old.export_residents():
            if new.import_resident(key, size):
                migrated += 1
        self.policy = new
        if sspan is not None:
            sspan.end(frm=old.name, to=new.name, migrated=migrated)
        if self.probe is not None:
            self.probe.emit(
                "policy_switch",
                shard=self.shard_id,
                frm=old.name,
                to=new.name,
                migrated=migrated,
            )
        return new

    # -- replication fill --------------------------------------------------
    def fill(self, req: Request) -> bool:
        """Admit ``req``'s metadata without serving it (replication fill).

        The replica-fill analogue of :meth:`swap`'s resident-set
        migration, through the primitive a queue policy's
        ``import_resident`` is (:meth:`~repro.cache.base.CachePolicy.admit`,
        which every policy has): the object enters through the policy's
        normal miss path — insertion position, evictions and capacity
        accounting all apply — but no hit/miss is recorded, so a fill never
        pollutes the policy's served-traffic statistics.  Never shed.
        ``True`` if the object was admitted, ``False`` if already resident
        or larger than the shard (or its tenant's partition); a policy bug
        is counted as unhandled and reads ``False``.
        """
        try:
            return self.policy.admit(req.key, req.size)
        except Exception:
            self.metrics.unhandled.inc()
            return False

    # -- tenant quotas -----------------------------------------------------
    def set_quotas(self, quotas: dict) -> bool:
        """Apply per-tenant byte quotas (and any shrink evictions they force).

        Duck-typed: the policy opts in by exposing ``set_quotas`` (the
        tenancy :class:`~repro.tenancy.partition.TenantPartitionedCache`
        does); anything else reports ``False`` so the service can surface
        the mismatch.  A policy bug is counted as unhandled and reads
        ``False``.
        """
        set_quotas = getattr(self.policy, "set_quotas", None)
        if set_quotas is None:
            return False
        try:
            set_quotas(quotas)
        except Exception:
            self.metrics.unhandled.inc()
            return False
        return True

    # -- origin fetch (leader) ---------------------------------------------
    async def _lead(self, key, size: int, span=None) -> FetchOutcome:
        """Fetch ``key`` and close its generation; only cancellation raises."""
        m = self.metrics
        probe = self.probe
        try:
            m.origin_fetches.inc()
            fspan = (
                span.child("origin_fetch", shard=self.shard_id)
                if span is not None
                else None
            )
            if probe is None:
                on_retry = self._count_retry
            else:
                probe.emit("fetch", key=key, size=size, shard=self.shard_id)

                def on_retry(attempt: int, reason: str) -> None:
                    m.origin_retries.inc()
                    probe.emit(
                        "fetch_retry", key=key, attempt=attempt, reason=reason, shard=self.shard_id
                    )

            outcome = await fetch_with_retry(
                self.origin, key, size, self.retry, self._rng, on_retry, span=fspan
            )
            if fspan is not None:
                fspan.end(
                    "ok" if outcome.ok else "error",
                    attempts=outcome.attempts,
                    timeouts=outcome.timeouts,
                )
            if outcome.timeouts:
                m.origin_timeouts.inc(outcome.timeouts)
            if outcome.ok:
                m.origin_latency_us.observe(int(outcome.elapsed * 1e6))
            else:
                m.origin_failures.inc()
                if probe is not None:
                    probe.emit(
                        "fetch_error",
                        key=key,
                        error=outcome.error,
                        attempts=outcome.attempts,
                        shard=self.shard_id,
                    )
                # The body never arrived: drop the write-on-miss metadata so
                # the policy doesn't serve phantom hits; the next request
                # opens a fresh fetch generation.
                remove = getattr(self.policy, "remove", None)
                if remove is not None:
                    remove(key)
        except Exception as exc:
            # A bug in the fetch path itself: count it and make sure no
            # waiter is stranded on an unresolved generation.
            m.unhandled.inc()
            outcome = FetchOutcome(key, 0, False, f"internal: {exc!r}", 0, 0, 0.0)
        self.flight.resolve(key, outcome)
        return outcome

    def _count_retry(self, attempt: int, reason: str) -> None:
        self.metrics.origin_retries.inc()

    def _detach(self, key, size: int, span=None) -> None:
        """Run ``key``'s fetch in a task of its own (held until it is done)."""
        task = asyncio.get_running_loop().create_task(self._lead(key, size, span))
        self._detached.add(task)
        task.add_done_callback(self._detached.discard)

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict:
        try:
            resident = len(self.policy)
        except (NotImplementedError, TypeError):
            resident = None
        return {
            "shard": self.shard_id,
            "resident_objects": resident,
            "used_bytes": self.policy.used,
            "capacity_bytes": self.policy.capacity,
            "shed": self.shed_count,
            "generations": self.flight.generations,
            "coalesced": self.flight.coalesced,
            "policy": self.policy.stats.as_dict(),
        }
