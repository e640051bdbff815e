"""``repro.api`` — the stable, versioned entry surface of the toolkit.

Everything an application or experiment script needs is re-exported here
with one explicit :data:`__all__`; deeper module paths remain importable
but are implementation layout, not contract.  ``tests/test_api_surface.py``
snapshots this surface so names cannot vanish silently.

The facade spans the five subsystems grown around the paper reproduction:

* **policies** — :func:`make_policy` / :func:`available_policies` (the
  unified registry, SCIP and SCI included) and :class:`SmartCache`, the
  dict-like application cache;
* **simulation** — :func:`simulate` over :class:`Request`/:class:`Trace`,
  plus the workload builders :func:`make_workload` (stationary Table-1
  profiles) and :func:`make_drift_trace` (nonstationary families);
* **paper-scale traces** — the binary trace format
  (:func:`write_bin` / :func:`read_bin` / :class:`BinTraceReader` /
  :class:`BinTraceWriter`, errors as :class:`TraceFormatError`), the
  constant-memory generators (:func:`stream_to_bin`,
  :func:`workload_to_bin`), and the streaming replay driver
  (:func:`simulate_batch`, :func:`batch_replay`, :func:`mrc_sweep`) that
  replays ``.bin`` files chunk-at-a-time through any registry policy,
  bit-exact with :func:`simulate` (:func:`batch_supported`: the two names
  with a dedicated core, LRU and SCIP);
* **serving** — :class:`CacheService`, the concurrent asyncio cache with
  sharded single-owner policies, and its :class:`SimulatedOrigin` /
  :class:`OriginConfig` / :class:`RetryPolicy` knobs;
* **orchestration** — :class:`Orchestrator` (+ :class:`ControllerConfig`)
  for shadow-cache policy selection with live hot swaps;
* **cluster** — :class:`ClusterRouter` (+ :class:`ClusterConfig`,
  :func:`build_cluster`, :class:`FaultPlan`, :class:`Rebalancer`), the
  replicated multi-node cache front with failure injection;
* **cache networks** — :class:`Topology` (+ :func:`tree_topology` /
  :func:`fat_tree_topology` builders), the on-path placement registry
  (:func:`make_placement` / :func:`available_placements`),
  :class:`ZipfReceivers`, and :class:`NetEngine`, the multi-tier
  edge→regional→origin replay engine (``docs/net_design.md``);
* **observability** — :class:`ObsConfig`, :class:`MetricsRegistry` and
  :class:`Probe`, the shared instrumentation vocabulary; plus
  request-scoped tracing (:class:`Tracer`, :class:`TraceConfig`,
  :class:`SpanSink`) with SLO accounting (:class:`SLO`,
  :class:`SLOTracker`);
* **multi-tenancy** — :class:`TenantPartitionedCache` (per-tenant byte
  quotas inside one policy slot), :class:`TenantMRCEstimator` (SHARDS-
  sampled live miss-ratio curves), :class:`CapacityAllocator`
  (waterfilling over MRC marginal gains, gated by
  :class:`HysteresisGate`), and :class:`TenancyController`, the online
  loop that watches per-tenant SLO burn and re-splits capacity
  (``docs/tenancy_design.md``); tenant-tagged traces come from
  :func:`multi_tenant_trace` with key namespaces of :data:`TENANT_STRIDE`;
* **benchmarks** — the unified ``repro bench <target>`` surface:
  :func:`run_bench` over :func:`bench_registry`'s :class:`BenchSpec`
  rows, every artifact a schema-versioned :class:`BenchResult` envelope
  (:data:`BENCH_RESULT_SCHEMA`) with the run manifest embedded.

Quickstart::

    from repro import api

    trace = api.make_workload("CDN-T", n_requests=60_000)
    cap = int(trace.working_set_size * 0.02)
    print(api.simulate(api.make_policy("SCIP", cap), trace).miss_ratio)
"""

from __future__ import annotations

from repro.bench import (
    BENCH_RESULT_SCHEMA,
    BenchResult,
    BenchSpec,
    bench_registry,
    run_bench,
)
from repro.cache.registry import (
    available_policies,
    make_policy,
    register_policy,
)
from repro.cache.smart import SmartCache
from repro.cluster.config import ClusterConfig, build_cluster
from repro.cluster.faults import FaultPlan
from repro.cluster.rebalance import Rebalancer
from repro.cluster.router import ClusterRouter
from repro.net.engine import NetEngine, NetResult
from repro.net.placement import (
    available_placements,
    make_placement,
    register_placement,
)
from repro.net.receivers import ZipfReceivers
from repro.net.topology import Topology, fat_tree_topology, tree_topology
from repro.obs.config import ObsConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from repro.obs.sinks import SpanSink
from repro.obs.span import SLO, SLOTracker, TraceConfig, Tracer
from repro.orchestrate.controller import (
    ControllerConfig,
    HysteresisGate,
    Orchestrator,
)
from repro.serve.origin import OriginConfig, RetryPolicy, SimulatedOrigin
from repro.serve.service import CacheService
from repro.sim.batch import (
    batch_replay,
    batch_supported,
    simulate_batch,
)
from repro.sim.engine import simulate
from repro.sim.parallel import mrc_sweep
from repro.sim.request import Request, Trace
from repro.traces.binfmt import (
    BinTraceReader,
    BinTraceWriter,
    TraceFormatError,
    is_bin_trace,
    read_bin,
    write_bin,
)
from repro.tenancy import (
    CapacityAllocator,
    TenancyController,
    TenantMRCEstimator,
    TenantPartitionedCache,
)
from repro.traces.cdn import make_workload, workload_to_bin
from repro.traces.drift import TENANT_STRIDE, make_drift_trace, multi_tenant_trace
from repro.traces.streaming import StreamSpec, make_stream_spec, stream_to_bin

__all__ = [
    # policies
    "make_policy",
    "available_policies",
    "register_policy",
    "SmartCache",
    # simulation
    "simulate",
    "Request",
    "Trace",
    "make_workload",
    "make_drift_trace",
    # paper-scale traces: binary format + streaming generators
    "write_bin",
    "read_bin",
    "is_bin_trace",
    "BinTraceReader",
    "BinTraceWriter",
    "TraceFormatError",
    "workload_to_bin",
    "stream_to_bin",
    "make_stream_spec",
    "StreamSpec",
    # paper-scale traces: array-backed batch replay
    "simulate_batch",
    "batch_replay",
    "batch_supported",
    "mrc_sweep",
    # serving
    "CacheService",
    "SimulatedOrigin",
    "OriginConfig",
    "RetryPolicy",
    # orchestration
    "Orchestrator",
    "ControllerConfig",
    # cluster
    "ClusterRouter",
    "ClusterConfig",
    "build_cluster",
    "FaultPlan",
    "Rebalancer",
    # cache networks
    "Topology",
    "tree_topology",
    "fat_tree_topology",
    "NetEngine",
    "NetResult",
    "ZipfReceivers",
    "make_placement",
    "available_placements",
    "register_placement",
    # observability
    "ObsConfig",
    "MetricsRegistry",
    "Probe",
    "Tracer",
    "TraceConfig",
    "SpanSink",
    "SLO",
    "SLOTracker",
    # multi-tenancy
    "TenantPartitionedCache",
    "TenantMRCEstimator",
    "CapacityAllocator",
    "TenancyController",
    "HysteresisGate",
    "multi_tenant_trace",
    "TENANT_STRIDE",
    # unified benchmarks
    "run_bench",
    "bench_registry",
    "BenchSpec",
    "BenchResult",
    "BENCH_RESULT_SCHEMA",
]
