"""Trace-driven simulation engine (the LRB-simulator replacement).

:func:`simulate` replays one trace through one policy, collecting engine-
owned metrics plus resource measurements (wall-clock TPS, simulated
metadata footprint, CPU time) for the Figure 9/11 comparisons.

Two replay paths share one result type:

* the **fast path** (default) drives the policy's bulk :meth:`~repro.cache.
  base.CachePolicy.replay` loop — no per-request callback, no per-request
  allocation; aggregate metrics come from ``policy.stats`` deltas taken at
  the warm-up boundary and at the end
  (:meth:`MetricsCollector.from_stats`, which the file-streaming driver
  :func:`repro.sim.batch.simulate_batch` shares), so downstream consumers
  see the same shape;
* the **rich path** keeps the original per-request ``record(request(req))``
  loop, and is selected whenever interval series or ``tracemalloc`` memory
  metering are requested (the Figure 9/11 resource benches) or forced with
  ``fast=False``.

Both paths produce bit-identical hit/miss decisions and aggregate metrics —
``tests/sim/test_golden_traces.py`` pins this.  A policy that reads the
future says so (:attr:`CachePolicy.needs_future
<repro.cache.base.CachePolicy.needs_future>`: the Belady oracles) and gets
an annotated trace; the engine checks and annotates on demand.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.obs.config import ObsConfig
from repro.obs.manifest import build_manifest, write_manifest
from repro.sim.metrics import MetricsCollector, stats_mark
from repro.sim.request import Trace, annotate_next_access

if TYPE_CHECKING:  # avoid a circular import: cache.base uses sim.request
    from repro.cache.base import CachePolicy

__all__ = ["SimResult", "simulate"]


@dataclass
class SimResult:
    """Outcome of one (policy, trace) replay."""

    policy: str
    trace: str
    cache_bytes: int
    requests: int
    miss_ratio: float
    byte_miss_ratio: float
    #: wall-clock requests/second of the replay loop.
    tps: float
    #: policy CPU seconds (process time spent inside the replay).
    cpu_seconds: float
    #: simulated metadata footprint at end of run (policy-reported), bytes.
    metadata_bytes: int
    #: peak Python allocation during the run (tracemalloc), bytes; 0 when
    #: memory tracing is off.
    peak_alloc_bytes: int
    metrics: MetricsCollector = field(repr=False, default=None)  # type: ignore[assignment]
    policy_obj: "CachePolicy" = field(repr=False, default=None)  # type: ignore[assignment]
    #: observability payload (registry snapshot + stream bookkeeping) when
    #: the run was traced via ``simulate(..., obs=ObsConfig(...))``.
    obs: Optional[dict] = field(repr=False, default=None)

    @classmethod
    def from_run(
        cls,
        policy: "CachePolicy",
        trace_name: str,
        requests: int,
        metrics: MetricsCollector,
        elapsed: float,
        cpu: float,
        peak: int = 0,
    ) -> "SimResult":
        """The record of ``requests`` replayed through ``policy`` in
        ``elapsed`` wall / ``cpu`` process seconds."""
        return cls(
            policy=policy.name,
            trace=trace_name,
            cache_bytes=policy.capacity,
            requests=requests,
            miss_ratio=metrics.miss_ratio,
            byte_miss_ratio=metrics.byte_miss_ratio,
            tps=requests / elapsed if elapsed > 0 else float("inf"),
            cpu_seconds=cpu,
            metadata_bytes=policy.metadata_bytes(),
            peak_alloc_bytes=peak,
            metrics=metrics,
            policy_obj=policy,
        )

    def as_dict(self) -> dict:
        out = {
            "policy": self.policy,
            "trace": self.trace,
            "cache_bytes": self.cache_bytes,
            "requests": self.requests,
            "miss_ratio": self.miss_ratio,
            "byte_miss_ratio": self.byte_miss_ratio,
            "tps": self.tps,
            "cpu_seconds": self.cpu_seconds,
            "metadata_bytes": self.metadata_bytes,
            "peak_alloc_bytes": self.peak_alloc_bytes,
        }
        if self.obs is not None:
            out["obs"] = self.obs
        return out


def simulate(
    policy: "CachePolicy",
    trace: Trace,
    warmup: int = 0,
    interval: int = 0,
    measure_memory: bool = False,
    needs_future: Optional[bool] = None,
    fast: Optional[bool] = None,
    obs: Optional[ObsConfig] = None,
) -> SimResult:
    """Replay ``trace`` through ``policy`` and collect metrics.

    Parameters
    ----------
    policy:
        A fresh policy instance (the engine does not reset state).
    warmup:
        Requests excluded from the aggregate metrics.
    interval:
        Interval-series resolution (0 = no series; forces the rich path).
    measure_memory:
        Enable ``tracemalloc`` peak tracking (slows the run ~2×; used only
        by the Figure 9/11 benches; forces the rich path).
    needs_future:
        Force (or skip) next-access annotation.  Default: what the policy
        declares (:attr:`CachePolicy.needs_future
        <repro.cache.base.CachePolicy.needs_future>` — the two Belady
        oracles).
    fast:
        Force the slim bulk-replay loop (``True``) or the per-request rich
        loop (``False``).  Default ``None`` picks fast whenever no interval
        series or memory metering was requested; forcing ``True`` alongside
        ``interval``/``measure_memory`` is contradictory (the fast loop has
        no per-request callback to feed them) and raises ``ValueError``.
        Both paths are decision-identical; the benchmark subsystem measures
        them against each other.
    obs:
        Observability configuration (:class:`repro.obs.ObsConfig`).  When
        given, a probe is attached to the policy for the duration of the
        replay (event stream → the configured sinks), the final registry
        snapshot lands in ``SimResult.obs``, and — if ``manifest_out`` is
        set — a run manifest is written.  Decisions are unchanged.  Which
        replay path runs is read off the sinks the config builds: ``ring``,
        ``trace_out`` and ``snapshot_every`` need every record, which SCIP's
        kernel emits as it goes; a config with none of them
        (``ObsConfig()``, with or without ``manifest_out``) only feeds the
        registry, and SCIP's kernel folds that in over a chunk.  The
        ``QueueCache`` kernel every other queue policy runs emits every
        record either way.
    """
    if fast and (interval > 0 or measure_memory):
        raise ValueError(
            "fast=True is contradictory with interval/measure_memory: the "
            "bulk loop has no per-request callback (use fast=None or "
            "fast=False for the rich path)"
        )
    if needs_future is None:
        needs_future = policy.needs_future
    if needs_future and not trace.annotated:
        annotate_next_access(trace)
    if fast is None:
        fast = interval == 0 and not measure_memory
    session = None
    manifest = None
    if obs is not None:
        session = obs.open()
        policy.attach_probe(session.probe)
        if obs.manifest_out:
            # Capture the policy's parameter set pre-replay, so the manifest
            # records configuration rather than end-of-run counter state.
            manifest = build_manifest(
                policy=policy,
                trace=trace,
                extra={"warmup": warmup, "trace_out": obs.trace_out},
            )
    try:
        if fast:
            result = _simulate_fast(policy, trace, warmup)
        else:
            result = _simulate_rich(policy, trace, warmup, interval, measure_memory)
    finally:
        if session is not None:
            policy.detach_probe()
            session.close()
    if session is not None:
        result.obs = session.snapshot()
        if manifest is not None:
            write_manifest(obs.manifest_out, manifest)
    return result


def _simulate_fast(policy: "CachePolicy", trace: Trace, warmup: int) -> SimResult:
    """Slim inner loop: bulk replay, metrics from stats deltas.

    The policy's own :class:`~repro.cache.base.CacheStats` counters are the
    single source of truth; the engine snapshots them at the start and at
    the warm-up boundary, so the aggregate metrics cover exactly the
    post-warm-up requests — the same contract as
    :meth:`MetricsCollector.record` with ``warmup`` set.
    """
    requests = trace.requests if isinstance(trace, Trace) else list(trace)
    t_cpu0 = time.process_time()
    t0 = time.perf_counter()
    if warmup > 0:
        policy.replay(requests[:warmup])
    mark = stats_mark(policy.stats)
    policy.replay(requests[warmup:] if warmup > 0 else requests)
    elapsed = time.perf_counter() - t0
    cpu = time.process_time() - t_cpu0
    metrics = MetricsCollector.from_stats(policy.stats, mark, len(requests), warmup)
    return SimResult.from_run(policy, trace.name, len(requests), metrics, elapsed, cpu)


def _simulate_rich(
    policy: "CachePolicy",
    trace: Trace,
    warmup: int,
    interval: int,
    measure_memory: bool,
) -> SimResult:
    """Per-request instrumented loop (interval series, memory metering)."""
    metrics = MetricsCollector(warmup=warmup, interval=interval)
    if measure_memory:
        tracemalloc.start()
    request = policy.request  # bind once: the hot loop is two calls/request
    record = metrics.record
    t_cpu0 = time.process_time()
    t0 = time.perf_counter()
    for req in trace:
        record(req.size, request(req))
    elapsed = time.perf_counter() - t0
    cpu = time.process_time() - t_cpu0
    peak = 0
    if measure_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    metrics.flush()
    return SimResult.from_run(policy, trace.name, len(trace), metrics, elapsed, cpu, peak)
