"""``bench net`` document: schema, acceptance flags, config round-trip."""

from __future__ import annotations

import pytest

from repro.bench import config_from_doc, load_bench_doc, write_bench_doc
from repro.net.bench import NET_BENCH_SCHEMA, format_net_doc, run_net_bench

BENCH_KWARGS = dict(
    n_requests=6_000,
    branching=(2, 2),
    edge_policies=("LRU", "SCIP"),
    placements=("LCE", "LCD", "PROB"),
    n_receivers=8,
    window=500,
    quick=True,
)


@pytest.fixture(scope="module")
def doc():
    return run_net_bench(**BENCH_KWARGS).as_doc()


class TestNetBenchDoc:
    def test_schema_and_shape(self, doc):
        assert doc["target"] == "net"
        assert doc["target_schema"] == NET_BENCH_SCHEMA
        assert set(doc["results"]["scenarios"]) == {
            "LRU+LCE", "LRU+LCD", "LRU+PROB",
            "SCIP+LCE", "SCIP+LCD", "SCIP+PROB",
        }
        for s in doc["results"]["scenarios"].values():
            assert s["requests"] > 0
            assert set(s["tier_miss_ratios"]) == {"edge", "mid1", "root"}
            assert s["unhandled_exceptions"] == 0

    def test_popkill_scenario(self, doc):
        pk = doc["results"]["popkill"]
        assert pk["served_error_rate"] == 0.0
        assert pk["errors"] == 0
        assert pk["victim"].startswith("edge")
        assert "dip_depth" in pk and "recovery_requests" in pk
        assert pk["grid_cell"] in doc["results"]["scenarios"]

    def test_comparison_flags(self, doc):
        cmp_ = doc["results"]["comparison"]
        assert cmp_["errors_zero"] is True
        assert cmp_["unhandled_exceptions_zero"] is True
        # the CI smoke gate: LCD strictly reduces copies vs LCE
        assert all(v >= 1 for v in cmp_["lcd_copy_reduction"].values())
        assert cmp_["best_cell"] in doc["results"]["scenarios"]

    def test_edge_wss_rows(self, doc):
        rows = doc["results"]["edge_wss"]
        assert len(rows) == 4  # branching (2, 2)
        total_requests = sum(r["requests"] for r in rows)
        scenarios = doc["results"]["scenarios"]
        assert total_requests == next(iter(scenarios.values()))["requests"]
        for row in rows:
            assert row["wss_lower_bytes"] <= row["wss_upper_bytes"]

    def test_manifest_round_trip(self, doc):
        cfg = config_from_doc(doc)
        # every run_net_bench keyword the bench varies must be rebuildable
        assert cfg["trace"] == "CDN-T"
        assert cfg["branching"] == [2, 2]
        assert cfg["edge_policies"] == ["LRU", "SCIP"]
        assert cfg["placements"] == ["LCE", "LCD", "PROB"]
        # derived fields are recomputed, not replayed
        for derived in ("capacities", "victim", "kill_at", "restart_at"):
            assert derived not in cfg
        # and the keywords are actually accepted by the entry point
        import inspect

        params = set(inspect.signature(run_net_bench).parameters)
        assert set(cfg) <= params

    def test_round_trip_reproduces_bit_exact(self, doc):
        redo = run_net_bench(**config_from_doc(doc))
        assert redo.results["scenarios"] == doc["results"]["scenarios"]
        assert redo.results["popkill"] == doc["results"]["popkill"]

    def test_write_and_format(self, doc, tmp_path):
        path = tmp_path / "BENCH_net.json"
        write_bench_doc(doc, str(path))
        loaded = load_bench_doc(str(path))
        assert loaded.target_schema == NET_BENCH_SCHEMA
        assert loaded.as_doc() == doc
        text = format_net_doc(loaded)
        assert "net bench" in text
        assert "popkill" in text
        assert "per-edge receiver WSS" in text
