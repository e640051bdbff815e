"""``repro.orchestrate`` — online shadow-cache policy orchestration.

The SCIP bandit adapts *where* a fixed policy inserts; this subsystem
adapts *which policy serves at all*.  Under nonstationary CDN traffic
(catalog churn, size-mix shifts, flash crowds, diurnal rotation — see
:mod:`repro.traces.drift`) no fixed replacement policy dominates, so the
orchestrator continuously answers "who would be best right now" with
three pieces:

* :class:`~repro.orchestrate.sampler.SpatialSampler` — SHARDS spatial
  hash sampling: shadow caches replay only a hash-selected fraction ``R``
  of the stream against capacity ``R · C``, keeping per-object reuse
  structure intact at ~``R``× the cost;
* :class:`~repro.orchestrate.shadow.ShadowRack` — K candidate policies as
  sampled mini-caches beside the live cache, scored by exponentially
  decayed windowed miss ratios (object or byte);
* :class:`~repro.orchestrate.controller.Orchestrator` — a switching
  controller with hysteresis, cooldown and regret accounting that
  promotes the winning shadow through a hot swap: synchronous via
  :meth:`repro.tdc.node.StorageNode.swap_policy`, or live on a running
  service via :meth:`repro.serve.service.CacheService.swap_policy`
  (executed on each shard's owner task — no locks).

``repro bench orchestrate`` (:mod:`repro.orchestrate.bench`) measures the
orchestrated cache against every fixed candidate on a drift trace and
writes ``BENCH_orchestrate.json``, replayable via
:func:`repro.bench.config_from_doc`.
"""

from repro.orchestrate.bench import (
    DEFAULT_CANDIDATES,
    ORCHESTRATE_BENCH_SCHEMA,
    format_orchestrate_doc,
    run_orchestrate_bench,
)
from repro.orchestrate.controller import (
    ControllerConfig,
    Orchestrator,
    SwitchController,
    SwitchEvent,
    resolve_candidates,
    run_orchestrated,
)
from repro.orchestrate.sampler import SpatialSampler
from repro.orchestrate.shadow import DecayedRatio, ShadowCache, ShadowRack

__all__ = [
    "SpatialSampler",
    "DecayedRatio",
    "ShadowCache",
    "ShadowRack",
    "ControllerConfig",
    "SwitchController",
    "SwitchEvent",
    "Orchestrator",
    "resolve_candidates",
    "run_orchestrated",
    "ORCHESTRATE_BENCH_SCHEMA",
    "DEFAULT_CANDIDATES",
    "run_orchestrate_bench",
    "format_orchestrate_doc",
]
