"""``repro.tenancy`` — multi-tenant capacity partitioning with SLOs.

One cluster's capacity, K tenants' traffic.  The subsystem answers
"whose bytes?" the way :mod:`repro.orchestrate` answers "which policy?":

* :class:`~repro.tenancy.partition.TenantPartitionedCache` enforces
  per-tenant byte quotas inside one policy slot (hard partitioning: a
  tenant under quota never loses bytes to a neighbour);
* :class:`~repro.tenancy.mrc.TenantMRCEstimator` runs a per-tenant
  SHARDS-sampled shadow grid producing a *live* miss-ratio curve;
* :class:`~repro.tenancy.allocator.CapacityAllocator` waterfills the
  capacity split over the MRC marginal-gain curves, behind the same
  hysteresis/cooldown gate the policy orchestrator uses;
* :class:`~repro.tenancy.controller.TenancyController` glues them to a
  live cache, tracks per-tenant miss-ratio SLOs through
  :class:`repro.obs.span.SLOTracker`, and forces a re-allocation when a
  tenant's error-budget burn rate crosses the trigger;
* :func:`~repro.tenancy.bench.run_tenancy_bench` compares the online
  allocation against static partitioning under a flash-crowd mix
  (``repro bench tenancy`` → ``BENCH_tenancy.json``).

See ``docs/tenancy_design.md`` for the design rationale.
"""

from repro.tenancy.allocator import CapacityAllocator
from repro.tenancy.bench import (
    TENANCY_BENCH_SCHEMA,
    format_tenancy_doc,
    run_tenancy_bench,
)
from repro.tenancy.controller import ReallocEvent, TenancyController
from repro.tenancy.mrc import TenantMRCEstimator
from repro.tenancy.partition import TenantPartitionedCache

__all__ = [
    "TenantPartitionedCache",
    "TenantMRCEstimator",
    "CapacityAllocator",
    "TenancyController",
    "ReallocEvent",
    "TENANCY_BENCH_SCHEMA",
    "run_tenancy_bench",
    "format_tenancy_doc",
]
