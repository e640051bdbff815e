"""Engine-level observability: ``simulate(..., obs=ObsConfig(...))`` and the
contradictory-flag guard."""

from __future__ import annotations

import json

import pytest

from repro.cache.lru import LRUCache
from repro.core.scip import SCIPCache
from repro.obs import ObsConfig
from repro.sim.engine import simulate


def _cap(trace, frac=0.02):
    return max(int(trace.working_set_size * frac), 1)


class TestForcedFastGuard:
    def test_fast_with_interval_raises(self, cdn_t_small):
        with pytest.raises(ValueError, match="contradictory"):
            simulate(LRUCache(_cap(cdn_t_small)), cdn_t_small, interval=1000, fast=True)

    def test_fast_with_measure_memory_raises(self, cdn_t_small):
        with pytest.raises(ValueError, match="contradictory"):
            simulate(
                LRUCache(_cap(cdn_t_small)), cdn_t_small, measure_memory=True, fast=True
            )

    def test_default_fast_still_downgrades_silently(self, cdn_t_small):
        """``fast=None`` (the default) keeps auto-selecting the rich path."""
        res = simulate(LRUCache(_cap(cdn_t_small)), cdn_t_small, interval=5_000)
        assert res.metrics.series

    def test_fast_false_with_interval_is_fine(self, cdn_t_small):
        res = simulate(
            LRUCache(_cap(cdn_t_small)), cdn_t_small, interval=5_000, fast=False
        )
        assert res.metrics.series


class TestSimulateObs:
    def test_obs_none_leaves_result_untouched(self, cdn_t_small):
        res = simulate(LRUCache(_cap(cdn_t_small)), cdn_t_small)
        assert res.obs is None
        assert "obs" not in res.as_dict()

    def test_obs_snapshot_in_result(self, cdn_t_small):
        res = simulate(SCIPCache(_cap(cdn_t_small)), cdn_t_small, obs=ObsConfig())
        assert res.obs is not None
        reg = res.obs["registry"]
        assert res.obs["events_emitted"] > 0
        assert reg["w_mru"][""]["value"] + reg["w_lru"][""]["value"] == pytest.approx(1.0)
        assert res.as_dict()["obs"]["events_emitted"] == res.obs["events_emitted"]

    def test_obs_run_is_decision_identical(self, cdn_t_small):
        cap = _cap(cdn_t_small)
        bare = simulate(SCIPCache(cap), cdn_t_small)
        traced = simulate(SCIPCache(cap), cdn_t_small, obs=ObsConfig())
        assert traced.miss_ratio == bare.miss_ratio
        assert traced.byte_miss_ratio == bare.byte_miss_ratio

    def test_probe_detached_after_run(self, cdn_t_small):
        policy = SCIPCache(_cap(cdn_t_small))
        simulate(policy, cdn_t_small, obs=ObsConfig())
        assert policy._probe is None
        assert policy.bandit._probe is None
        assert policy.lr._probe is None

    def test_jsonl_closed_even_when_replay_raises(self, tmp_path, cdn_t_small):
        out = tmp_path / "ev.jsonl"

        class Exploding(LRUCache):
            def _on_access(self, key, size):
                raise RuntimeError("boom")

        policy = Exploding(_cap(cdn_t_small))
        with pytest.raises(RuntimeError):
            simulate(policy, cdn_t_small, obs=ObsConfig(trace_out=str(out)))
        assert policy._probe is None
        # The file sink was flushed/closed: the schema header is on disk.
        assert json.loads(out.read_text().splitlines()[0])["event"] == "schema"

    def test_manifest_written(self, tmp_path, cdn_t_small):
        manifest = tmp_path / "run.manifest.json"
        simulate(
            SCIPCache(_cap(cdn_t_small)),
            cdn_t_small,
            warmup=100,
            obs=ObsConfig(manifest_out=str(manifest)),
        )
        doc = json.loads(manifest.read_text())
        assert doc["policy"]["name"] == "SCIP"
        assert doc["trace"]["name"] == "CDN-T"
        assert doc["extra"]["warmup"] == 100
