"""``bench cluster``: doc schema, dip metrics, and the reproducibility
contract (``repro.bench.config_from_doc`` rebuilds the run)."""

from __future__ import annotations

import pytest

from repro.bench import config_from_doc
from repro.cluster.bench import (
    CLUSTER_BENCH_SCHEMA,
    _dip_metrics,
    _window_series,
    format_cluster_doc,
    run_cluster_bench,
)

# Churn at this small scale shows the replication effect cleanly (the
# flash family needs a longer run before the dip signal beats the
# trace-phase noise — the committed BENCH_cluster.json covers that).
BENCH_KWARGS = dict(
    trace="churn",
    n_requests=8_000,
    window=500,
    fraction=0.1,
)


@pytest.fixture(scope="module")
def result():
    return run_cluster_bench(**BENCH_KWARGS)


@pytest.fixture(scope="module")
def doc(result):
    return result.as_doc()


class TestWindowing:
    def test_window_series_drops_partial_tail(self):
        flags = [True] * 10 + [False] * 10 + [True] * 3
        assert _window_series(flags, 10) == [1.0, 0.0]

    def test_dip_metrics_reads_the_dip(self):
        series = [0.5, 0.5, 0.5, 0.5, 0.1, 0.3, 0.5, 0.5]
        m = _dip_metrics(series, window=100, kill_at=400)
        assert m["baseline_hit_ratio"] == pytest.approx(0.5)
        assert m["dip_depth"] == pytest.approx(0.4)
        # Recovered at window 6 (first window back within tolerance):
        # 7 windows * 100 - 400 requests since the kill.
        assert m["recovery_requests"] == 300

    def test_no_recovery_is_none(self):
        series = [0.5, 0.5, 0.1, 0.1]
        m = _dip_metrics(series, window=100, kill_at=200)
        assert m["recovery_requests"] is None


class TestBenchDoc:
    def test_schema_and_scenarios(self, doc):
        assert doc["target"] == "cluster"
        assert doc["target_schema"] == CLUSTER_BENCH_SCHEMA
        assert set(doc["results"]["scenarios"]) == {"R1", "R2"}
        for s in doc["results"]["scenarios"].values():
            assert s["requests"] > 0
            assert s["unhandled_exceptions"] == 0
            assert len(s["hit_ratio_series"]) > 0

    def test_acceptance_headlines(self, doc):
        cmp_ = doc["results"]["comparison"]
        # Graceful degradation: zero served errors through kill + restart...
        assert cmp_["errors_zero"]
        assert cmp_["served_error_rate"] == {"R1": 0.0, "R2": 0.0}
        # ...and replication buys a shallower hit-ratio dip.
        assert cmp_["r2_dip_shallower"]
        assert cmp_["dip_reduction"] > 0
        # R=2 pays for the dip protection with replica fills; R=1 has none.
        assert doc["results"]["scenarios"]["R2"]["fills"] > 0
        assert doc["results"]["scenarios"]["R1"]["fills"] == 0

    def test_fault_placement_recorded(self, doc):
        cfg = doc["config"]
        assert cfg["victim"] in {f"n{i}" for i in range(cfg["n_nodes"])}
        assert 0 < cfg["kill_at"] < cfg["restart_at"]
        for s in doc["results"]["scenarios"].values():
            assert s["node_downs"] == 1 and s["node_ups"] == 1
            assert s["failovers"] > 0

    def test_format_is_human_readable(self, result):
        text = format_cluster_doc(result)
        assert "cluster bench" in text and "R=2 dip shallower" in text


class TestReproducibility:
    def test_config_from_doc_rebuilds_identical_run(self, doc):
        kwargs = config_from_doc(doc)
        # Derived fields are recomputed, not replayed.
        for derived in ("capacity_bytes", "victim", "kill_at", "restart_at"):
            assert derived not in kwargs
        redo = run_cluster_bench(**kwargs)
        assert redo.config == doc["config"]
        assert redo.results["scenarios"] == doc["results"]["scenarios"]

    def test_manifest_embeds_full_config(self, doc):
        assert doc["manifest"]["extra"]["cluster"] == doc["config"]
        assert doc["manifest"]["seed"] == doc["config"]["seed"]
