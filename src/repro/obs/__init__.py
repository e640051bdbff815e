"""``repro.obs`` — zero-overhead instrumentation for the SCIP reproduction.

Three pieces:

* **metrics** — :class:`~repro.obs.metrics.MetricsRegistry` of counters,
  gauges and fixed-log2-bucket histograms, the shared numeric vocabulary
  (the TDC monitor's latency histogram is the same type);
* **probe** — :class:`~repro.obs.probe.Probe`, the named-hook-point event
  API; policies pay one ``if self._probe is None`` branch when tracing is
  off, the bulk-replay loops pay nothing, and a probe whose sinks only
  aggregate is folded inside SCIP's loop instead of leaving it;
* **sinks** — ring buffer, schema-versioned JSONL writer (gzip-able),
  registry recorder, periodic snapshot emitter; plus run **manifests**
  (seed, params, git SHA) for reproducible artifacts;
* **spans** — :class:`~repro.obs.span.Tracer` request-scoped trace trees
  with head sampling + tail-keep, per-stage critical-path attribution,
  and :class:`~repro.obs.span.SLOTracker` error budgets; rendered by
  :mod:`repro.obs.tracereport` / ``repro trace-report``.

Entry point for engine users::

    from repro.obs import ObsConfig
    res = simulate(SCIPCache(cap), trace, obs=ObsConfig(trace_out="ev.jsonl"))
    res.obs["registry"]["w_mru"]  # final learner state

CLI: ``repro simulate --trace-out ev.jsonl --obs-summary`` to record,
``repro obs ev.jsonl`` to reconstruct the ω/λ trajectories.
"""

from repro.obs.config import ObsConfig, ObsSession
from repro.obs.manifest import MANIFEST_SCHEMA, build_manifest, write_manifest
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.probe import PROBE_EVENTS, Probe
from repro.obs.sinks import (
    EVENT_SCHEMA,
    SPAN_SCHEMA,
    JSONLSink,
    RegistryRecorder,
    RingBufferSink,
    SnapshotEmitter,
    SpanSink,
)
from repro.obs.span import SLO, SLOTracker, Span, TraceConfig, Tracer, critical_path

__all__ = [
    "ObsConfig",
    "ObsSession",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "write_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROBE_EVENTS",
    "Probe",
    "EVENT_SCHEMA",
    "SPAN_SCHEMA",
    "JSONLSink",
    "RegistryRecorder",
    "RingBufferSink",
    "SnapshotEmitter",
    "SpanSink",
    "SLO",
    "SLOTracker",
    "Span",
    "TraceConfig",
    "Tracer",
    "critical_path",
]
