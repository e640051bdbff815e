"""The stable ``repro.api`` facade and the unified policy registry.

Satellite acceptance for the cluster PR: every name in
``repro.api.__all__`` must import and resolve, ``make_policy`` must
round-trip every registered policy, and the old import paths must keep
working (via deprecation shims where the home moved).
"""

from __future__ import annotations

import pytest

import repro.api
from repro.cache.base import CachePolicy
from repro.cache.registry import (
    available_policies,
    make_policy,
    policy_registry,
    register_policy,
    resolve_policy,
    unregister_policy,
)
from repro.sim.request import Request


class TestApiSurface:
    def test_every_name_in_all_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name, None) is not None, name

    def test_all_is_the_public_surface(self):
        # The facade's contract: __all__ is explicit and sorted into the
        # documented groups, and star-import honours it.
        ns = {}
        exec("from repro.api import *", ns)
        exported = {k for k in ns if not k.startswith("__")}
        assert exported == set(repro.api.__all__)

    def test_facade_covers_the_subsystems(self):
        for name in (
            "make_policy",       # policies
            "simulate",          # simulation
            "SmartCache",        # embedding
            "read_bin",          # paper-scale traces: binary format
            "simulate_batch",    # paper-scale traces: batch replay
            "mrc_sweep",         # paper-scale traces: parallel sweeps
            "CacheService",      # serving
            "Orchestrator",      # orchestration
            "ClusterRouter",     # cluster
            "NetEngine",         # cache networks
            "Topology",          # cache networks
            "make_placement",    # cache networks
            "ZipfReceivers",     # cache networks
            "ObsConfig",         # observability
            "TenancyController",        # multi-tenancy
            "TenantPartitionedCache",   # multi-tenancy
            "multi_tenant_trace",       # multi-tenancy
            "run_bench",                # unified benchmarks
            "bench_registry",           # unified benchmarks
        ):
            assert name in repro.api.__all__

    def test_bench_facade_lists_the_targets(self):
        registry = repro.api.bench_registry()
        assert set(registry) == {
            "serve", "orchestrate", "cluster", "net", "tenancy",
        }
        for target, spec in registry.items():
            assert spec.target == target
            assert spec.description, target
            assert spec.default_output.startswith("BENCH_"), target

    def test_batch_facade_is_live(self):
        # The paper-scale names are functional through the facade, not
        # just importable: stream a tiny trace end to end in memory.
        trace = repro.api.make_workload("CDN-T", n_requests=2_000)
        cap = max(int(trace.working_set_size * 0.05), 1)
        rich = repro.api.simulate(repro.api.make_policy("LRU", cap), trace)
        assert repro.api.batch_supported("LRU")
        batch = repro.api.simulate_batch("LRU", trace, cap)
        assert batch.miss_ratio == rich.miss_ratio
        assert batch.byte_miss_ratio == rich.byte_miss_ratio


class TestPolicyRegistry:
    @pytest.mark.parametrize("name", available_policies())
    def test_make_policy_round_trip(self, name):
        policy = make_policy(name, 1_000_000)
        assert isinstance(policy, CachePolicy)
        assert policy.capacity == 1_000_000
        # The instance is live: it can take a request.
        policy.request(Request(0, 1, 100))

    def test_paper_policies_registered_once_centrally(self):
        # SCIP/SCI used to be special-cased at three call sites; now they
        # are ordinary registry rows.
        names = available_policies()
        assert "SCIP" in names and "SCI" in names

    def test_unknown_name_lists_the_menu(self):
        with pytest.raises(KeyError, match="unknown policy 'nope'.*available"):
            resolve_policy("nope")

    def test_registry_copy_is_isolated(self):
        snapshot = policy_registry()
        snapshot["EVIL"] = object
        assert "EVIL" not in available_policies()

    def test_register_policy_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy("LRU", resolve_policy("LRU"))

    def test_register_policy_extends_the_menu(self):
        from repro.cache.lru import LRUCache

        class Custom(LRUCache):
            pass

        try:
            register_policy("X-CUSTOM", Custom)
            assert isinstance(make_policy("X-CUSTOM", 1000), Custom)
        finally:
            unregister_policy("X-CUSTOM")
        with pytest.raises(KeyError):
            resolve_policy("X-CUSTOM")


class TestOldPathsKeepWorking:
    def test_cache_package_make_policy_delegates(self):
        from repro.cache import make_policy as old_make_policy

        assert type(old_make_policy("SCIP", 10_000)) is type(
            make_policy("SCIP", 10_000)
        )

    def test_smart_cache_importable_from_both_homes(self):
        from repro.api import SmartCache as from_api
        from repro.cache.smart import SmartCache as from_home

        assert from_api is from_home
