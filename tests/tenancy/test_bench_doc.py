"""The tenancy bench doc: structure, fairness math, config round-trip."""

from __future__ import annotations

import json

import pytest

from repro.bench import config_from_doc
from repro.tenancy import (
    TENANCY_BENCH_SCHEMA,
    format_tenancy_doc,
    run_tenancy_bench,
)


@pytest.fixture(scope="module")
def result():
    # Small but real: enough requests for the flash phases to exist,
    # cheap enough for tier-1.
    return run_tenancy_bench(
        n_requests=9_000,
        window=200,
        cooldown=1_500,
        min_samples=50,
        eval_every=200,
        hysteresis=0.02,
        min_gap=0.001,
    )


@pytest.fixture(scope="module")
def doc(result):
    return result.as_doc()


class TestDocShape:
    def test_schema_config_and_sections(self, doc):
        assert doc["target"] == "tenancy"
        assert doc["target_schema"] == TENANCY_BENCH_SCHEMA
        assert doc["config"]["tenants"] == ["churn", "flash", "diurnal"]
        res = doc["results"]
        for section in ("static", "online"):
            rows = res[section]["tenants"]
            assert set(rows) == {"0", "1", "2"}
            for row in rows.values():
                assert 0.0 <= row["miss_ratio"] <= 1.0
                assert row["used_bytes"] <= row["quota_bytes"]
        assert "controller" in res["online"]
        assert res["online"]["controller"]["accounting_errors"] == 0

    def test_comparison_block_is_consistent(self, doc):
        res = doc["results"]
        cmp_ = res["comparison"]
        static_worst = max(
            row["miss_ratio"] for row in res["static"]["tenants"].values()
        )
        online_worst = max(
            row["miss_ratio"] for row in res["online"]["tenants"].values()
        )
        assert cmp_["static_worst_tenant_mr"] == pytest.approx(static_worst)
        assert cmp_["online_worst_tenant_mr"] == pytest.approx(online_worst)
        expected = (static_worst - online_worst) / static_worst
        assert cmp_["worst_tenant_improvement"] == pytest.approx(expected)
        assert cmp_["n_reallocations"] == len(
            res["online"]["controller"]["reallocations"]
        )

    def test_doc_is_json_serialisable(self, doc):
        json.dumps(doc)

    def test_formatter_summarises_the_comparison(self, result):
        text = format_tenancy_doc(result)
        assert "worst tenant mr" in text
        assert "3 tenants" in text


class TestManifestRoundTrip:
    def test_config_from_doc_rebuilds_the_run_kwargs(self, doc):
        cfg = config_from_doc(doc)
        assert cfg["tenants"] == doc["config"]["tenants"]
        assert cfg["n_requests"] == doc["config"]["n_requests"]
        assert cfg["fraction"] == doc["config"]["cache_fraction"]
        assert "capacity_bytes" not in cfg
        # The rebuilt kwargs are accepted verbatim by the runner.
        run_tenancy_bench(**{**cfg, "n_requests": 3_000})

    def test_manifest_embeds_the_tenancy_extra(self, doc):
        extra = doc["manifest"]["extra"]["tenancy"]
        assert extra["tenants"] == doc["config"]["tenants"]


class TestKnobs:
    def test_quick_caps_the_request_budget(self):
        doc = run_tenancy_bench(
            n_requests=200_000, quick=True, window=200, eval_every=500,
        )
        assert doc.config["n_requests"] <= 45_000

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            run_tenancy_bench(tenants=("churn",))
        with pytest.raises(ValueError):
            run_tenancy_bench(
                tenants=("churn", "diurnal"), mr_slo=0.0, n_requests=2_000,
            )
