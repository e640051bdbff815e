"""Batch-engine observability: chunk-boundary aggregates on SimResult.obs.

The bulk entries never see individual requests, so they cannot feed the
per-event probe; instead every chunk boundary folds the stats delta into
registry counters.  These aggregates must reconcile exactly with the
core's own CacheStats — for the LRU array core and for names the driver
streams through their registry policy alike."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.batch import BatchLRU, make_batch_policy, simulate_batch
from repro.sim.request import Trace
from tests.conftest import make_requests


def _trace(n=5_000, keys=300, seed=9):
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, keys, n)
    pairs = [(int(k), 100) for k in ks]
    return Trace(make_requests(pairs), name="batchobs")


class TestBatchObs:
    @pytest.mark.parametrize("policy", ["LRU", "FIFO", "CLOCK", "SIEVE"])
    def test_obs_registry_reconciles_with_stats(self, policy):
        trace = _trace()
        res = simulate_batch(policy, trace, 5_000, chunk_size=1_000)
        assert res.obs is not None
        snap = res.obs["registry"]
        core = res.policy_obj
        assert snap["sim_requests"][""]["value"] == core.stats.requests
        assert snap["sim_hits"][""]["value"] == core.stats.hits
        assert snap["sim_evictions"][""]["value"] == core.stats.evictions
        assert res.obs["chunks"] == snap["batch_chunks"][""]["value"] == 5

    def test_compaction_counter_increments(self):
        # Tiny compact slack forces window compactions on a long replay.
        core = BatchLRU(2_000)
        core._COMPACT_SLACK = 1_000
        trace = _trace(n=20_000, keys=5_000)
        res = simulate_batch(core, trace, core.capacity, chunk_size=2_000)
        assert core.compactions > 0
        snap = res.obs["registry"]
        assert snap["batch_compactions"][""]["value"] == core.compactions
        assert snap["batch_spills"][""]["value"] == 0

    def test_spill_counter_increments_on_inconsistent_sizes(self):
        # The same key changing size forces the reference-policy spill.
        pairs = [(1, 100), (2, 100), (1, 999), (3, 100), (1, 999)]
        trace = Trace(make_requests(pairs), name="spilly")
        res = simulate_batch("LRU", trace, 10_000)
        core = res.policy_obj
        assert core.spills == 1
        assert res.obs["registry"]["batch_spills"][""]["value"] == 1

    def test_scalar_cores_default_to_zero_maintenance_counters(self):
        # A registry policy (CLOCK here) has no window compaction; the fold
        # must not assume the attributes exist.
        core = make_batch_policy("CLOCK", 5_000)
        res = simulate_batch(core, _trace(n=2_000), core.capacity)
        snap = res.obs["registry"]
        assert snap["batch_compactions"][""]["value"] == 0
        assert snap["batch_spills"][""]["value"] == 0

    def test_warmup_does_not_break_the_fold(self):
        trace = _trace(n=4_000)
        res = simulate_batch("LRU", trace, 5_000, warmup=1_500, chunk_size=1_000)
        # Registry counters cover the whole replay (warm-up included) —
        # they mirror CacheStats, not the post-warm-up metrics window.
        assert res.obs["registry"]["sim_requests"][""]["value"] == 4_000
        assert res.requests == 4_000
