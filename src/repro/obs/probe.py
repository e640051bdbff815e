"""The probe: named event hook points with a zero-cost disabled path.

Instrumented components (``SCIPCache``, ``PositionBandit``,
``LearningRateController``, ``QueueCache``) carry a **class-level**
``_probe = None`` attribute — the module-level no-op.  Attaching a probe
shadows it with an instance attribute; every hook point in the hot code is
therefore exactly one ``if self._probe is not None`` branch when tracing is
off.  SCIP's events all come from its one kernel
(:meth:`SCIPCache._kernel <repro.core.scip.SCIPCache._kernel>`), which has
an emit site for each: per request it emits records, and over a chunk's
columns it emits them only to a probe with a sink that needs records
(ring buffer, JSONL, snapshots, anything with only ``write``) — a probe
whose sinks all take aggregates (:attr:`Probe.folds` — the lone
``RegistryRecorder`` a default ``ObsConfig()`` builds) is handed counts
through :meth:`Probe.fold` at window edges instead.  Which happens is read
off the probe's sinks, never set.  Every other queue policy's events come
from the one :meth:`QueueCache._kernel <repro.cache.base.QueueCache._kernel>`,
which emits one record per event to any probe under either driver.

Event vocabulary (see ``docs/obs_schema.md`` for the field tables):

==================== ==========================================================
event                emitted by
==================== ==========================================================
``admit``            ``QueueCache``'s kernel, SCIP's kernel — object
                     inserted (MRU, LRU end or mid-queue)
``evict``            ``QueueCache``'s kernel, SCIP's kernel — victim left
                     the cache
``ghost_hit``        SCIP's kernel — re-request found in H_m / H_l
``episode_transition`` SCIP's kernel, the per-object machine: DENIED /
                     SUSPECT / DEMOTED / RELEASED / ESCAPED
``weight_update``    SCIP's kernel, to the bandit's probe — ω pair after a
                     penalty
``lambda_update``    ``LearningRateController.update`` — λ after UPDATELR
``lambda_restart``   the Algorithm-2 random restart inside UPDATELR
``snapshot``         :class:`repro.obs.sinks.SnapshotEmitter` — registry dump
``fetch``            ``serve.CacheShard`` — leader origin fetch started
``fetch_retry``      serve fetch attempt failed/timed out; backing off
``fetch_error``      serve fetch failed terminally (after all retries)
``shed``             serve shard at its unanswered bound — request shed
``shadow_hit``       ``orchestrate.ShadowRack`` — sampled hit in one shadow
``policy_switch``    ``orchestrate.Orchestrator`` promotion / ``serve.
                     CacheShard`` live swap
``node_down``        ``cluster.ClusterRouter`` — a node was killed (fault
                     plan or operator action)
``node_up``          ``cluster.ClusterRouter`` — a node (re)started cold
``failover``         ``cluster.ClusterRouter`` — a request skipped one or
                     more dead owners (served by a replica or the origin)
``rebalance``        ``cluster.Rebalancer`` — ring membership changed
                     (node added/removed/replaced, optional warm handoff)
``net_tier_hit``     ``net.NetEngine`` — lookup walk found the object at a
                     cache node (serving point for this request)
``net_origin_fetch`` ``net.NetEngine`` — no cache on the path had the
                     object; served from origin
``net_placement``    ``net.NetEngine`` — on-path placement decided which
                     downstream caches admit a copy
``net_node_down``    ``net.NetEngine`` — a PoP was killed by the fault
                     plan (cache state discarded)
``net_node_up``      ``net.NetEngine`` — a killed PoP restarted cold
``tenant_realloc``   ``tenancy.TenancyController`` — the capacity split
                     across tenants was re-solved and applied
``quota_evict``      ``tenancy.TenantPartitionedCache`` — a quota shrink
                     evicted residents of the over-quota tenant
``slo_breach``       ``tenancy.TenancyController`` — a tenant's SLO burn
                     rate crossed the re-allocation trigger
==================== ==========================================================

Every record carries ``seq`` (emission order) and, when the probe has a
clock source, ``t`` (the owning policy's logical clock).  Sinks receive the
record dict in registration order — registry-updating sinks should precede
snapshotting ones.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

__all__ = ["Probe", "PROBE_EVENTS"]

#: The full hook-point vocabulary; an emit with an unknown event name is a
#: programming error and raises.
PROBE_EVENTS = frozenset(
    {
        "admit",
        "evict",
        "ghost_hit",
        "episode_transition",
        "weight_update",
        "lambda_update",
        "lambda_restart",
        "snapshot",
        "fetch",
        "fetch_retry",
        "fetch_error",
        "shed",
        "shadow_hit",
        "policy_switch",
        "node_down",
        "node_up",
        "failover",
        "rebalance",
        "net_tier_hit",
        "net_origin_fetch",
        "net_placement",
        "net_node_down",
        "net_node_up",
        "tenant_realloc",
        "quota_evict",
        "slo_breach",
    }
)


class Probe:
    """Fan-out point for instrumentation events.

    Parameters
    ----------
    sinks:
        Objects with a ``write(record: dict)`` method, called in order; a
        sink may also take aggregates through ``fold(event, n, fields)``
        (see :attr:`folds`).
    events:
        Optional event-name filter; emissions outside the set are dropped
        before any record is built.
    now:
        Optional zero-arg callable supplying the logical clock; attached
        policies install their own (``lambda: self.clock``) so learner
        components without a clock still produce time-keyed records.
    """

    __slots__ = ("sinks", "events", "now", "seq")

    def __init__(
        self,
        sinks: Iterable = (),
        events: Optional[frozenset] = None,
        now: Optional[Callable[[], int]] = None,
    ):
        if events is not None:
            unknown = set(events) - PROBE_EVENTS
            if unknown:
                raise ValueError(f"unknown probe events: {sorted(unknown)}")
        self.sinks = list(sinks)
        self.events = events
        self.now = now
        self.seq = 0

    def emit(self, event: str, **fields) -> None:
        """Build one event record and hand it to every sink."""
        if event not in PROBE_EVENTS:
            raise ValueError(f"unknown probe event {event!r}")
        if self.events is not None and event not in self.events:
            return
        self.seq += 1
        rec = {"seq": self.seq, "event": event}
        if self.now is not None and "t" not in fields:
            rec["t"] = self.now()
        rec.update(fields)
        for sink in self.sinks:
            sink.write(rec)

    @property
    def folds(self) -> bool:
        """Whether every sink takes aggregates, i.e. nobody needs the
        records: an emitter that counts its own events may then report
        them through :meth:`fold` and never build one."""
        return all(hasattr(sink, "fold") for sink in self.sinks)

    def fold(self, event: str, n: int, **fields) -> None:
        """``n`` occurrences of ``event`` at once, for sinks that
        :attr:`folds`: same filter, same ``seq`` as ``n`` :meth:`emit`
        calls.  ``fields`` carries what the sinks' folds read, under the
        record's field names (:meth:`RegistryRecorder.fold
        <repro.obs.sinks.RegistryRecorder.fold>`)."""
        if event not in PROBE_EVENTS:
            raise ValueError(f"unknown probe event {event!r}")
        if n == 0 or (self.events is not None and event not in self.events):
            return
        self.seq += n
        for sink in self.sinks:
            sink.fold(event, n, fields)

    def close(self) -> None:
        """Close every sink that supports it (flushes JSONL writers)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
