"""The bench surface: one document, one registry, one CLI verb, one
reproducer."""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_RESULT_SCHEMA,
    BenchResult,
    bench_registry,
    config_from_doc,
    load_bench_doc,
    run_bench,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestEnvelope:
    def _result(self):
        return BenchResult(
            target="serve",
            target_schema=1,
            config={"n_shards": 2},
            results={"loadgen": {"throughput_rps": 100.0}},
            manifest={"extra": {"serve": {}}},
        )

    def test_doc_round_trip(self, tmp_path):
        result = self._result()
        doc = result.as_doc()
        assert doc["schema"] == BENCH_RESULT_SCHEMA
        back = BenchResult.from_doc(doc)
        assert back.results == result.results
        assert back.config == result.config
        path = tmp_path / "env.json"
        path.write_text(json.dumps(doc))
        loaded = load_bench_doc(str(path))
        assert loaded.path == str(path)
        assert loaded.results == result.results

    def test_from_doc_rejects_legacy_layout_loudly(self):
        with pytest.raises(ValueError, match="schema 2"):
            BenchResult.from_doc({"schema": 2, "results": {}})
        with pytest.raises(ValueError, match="not a unified bench doc"):
            BenchResult.from_doc({"loadgen": {}})


class TestRegistry:
    def test_six_targets_each_fully_specified(self):
        # Five since the engine micro-bench retired into the ladder; the
        # id is kept so the suite's history stays comparable.
        registry = bench_registry()
        assert sorted(registry) == [
            "cluster", "net", "orchestrate", "serve", "tenancy",
        ]
        for target, spec in registry.items():
            assert spec.target == target
            assert spec.default_output == f"BENCH_{target}.json"
            assert callable(spec.runner) and callable(spec.formatter)

    def test_unknown_target_lists_the_menu(self):
        with pytest.raises(KeyError, match="unknown bench target.*available"):
            run_bench("warp-drive", output=None)


class TestRunBench:
    @pytest.fixture(scope="class")
    def tenancy_result(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench") / "BENCH_tenancy.json"
        return run_bench(
            "tenancy",
            output=str(out),
            n_requests=9_000,
            window=200,
            cooldown=1_500,
            min_samples=50,
            eval_every=200,
        )

    def test_envelope_written_and_typed(self, tenancy_result):
        assert tenancy_result.schema == BENCH_RESULT_SCHEMA
        assert tenancy_result.target == "tenancy"
        on_disk = json.loads(open(tenancy_result.path).read())
        assert on_disk == tenancy_result.as_doc()
        assert on_disk["results"]["comparison"]["accounting_errors"] == 0
        # The results block carries neither schema nor config nor
        # manifest — those are envelope blocks.
        for hoisted in ("schema", "config", "manifest"):
            assert hoisted not in on_disk["results"]

    def test_manifest_travels_unchanged_for_reproduction(self, tenancy_result):
        doc = tenancy_result.as_doc()
        assert doc["manifest"]["extra"]["tenancy"] == doc["config"]
        cfg = config_from_doc(doc)
        assert cfg["tenants"] == doc["config"]["tenants"]
        assert cfg["n_requests"] == 9_000

    def test_seed_none_keeps_the_targets_default(self, tenancy_result):
        # seed was not passed, so the runner used its own default (0).
        assert tenancy_result.config["seed"] == 0


#: Small shapes of every target, for the round-trip below.
SMALL = {
    "serve": dict(
        workload="CDN-W", n_requests=1_500, n_shards=2, concurrency=16,
        origin_latency=0.001, trace_sample=0.05,
    ),
    "cluster": dict(trace="churn", n_requests=6_000, window=500),
    "net": dict(
        n_requests=4_000, branching=(2, 2), edge_policies=("LRU",),
        placements=("LCE", "LCD"), n_receivers=8, window=500,
    ),
    "orchestrate": dict(
        trace="churn", n_requests=12_000, candidates=("LRU", "GDSF"),
    ),
    "tenancy": dict(
        n_requests=9_000, window=200, cooldown=1_500, min_samples=50,
        eval_every=200,
    ),
}


@pytest.mark.parametrize("target", sorted(SMALL))
def test_config_from_doc_round_trips(target):
    """The artifact alone reproduces the run, for every target: the
    keywords bind to the runner, and a re-run from them is the same run."""
    runner = bench_registry()[target].runner
    first = runner(**SMALL[target])
    persisted = json.loads(json.dumps(first.as_doc()))
    kwargs = config_from_doc(persisted)
    inspect.signature(runner).bind(**kwargs)
    again = runner(**kwargs)
    assert again.config == persisted["config"]
    if target == "serve":  # wall-clock measurements: only the shape repeats
        assert set(again.results) == set(persisted["results"])
        return
    blocks = ("comparison", "scenarios", "popkill") if target == "net" else ("comparison",)
    for block in blocks:
        assert again.results[block] == persisted["results"][block], block


def test_committed_artifacts_are_envelopes():
    """Every ``BENCH_*.json`` at the repo root is the one document: it
    loads, names a registered target, and reproduces through that
    target's runner."""
    registry = bench_registry()
    paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        result = load_bench_doc(str(path))
        assert result.target in registry, path.name
        runner = registry[result.target].runner
        if result.target == "serve":  # run_serve_bench forwards **kwargs to this
            from repro.serve import serve_bench_async as runner
        inspect.signature(runner).bind(**config_from_doc(result.as_doc()))


class TestLegacyArgvShims:
    """The retired spellings are gone; the one verb is what works."""

    @pytest.mark.parametrize("argv", [["serve-bench", "--quick"], ["bench", "--quick"]])
    def test_retired_spellings_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_cli_end_to_end_writes_the_envelope(self, tmp_path, capsys):
        out = tmp_path / "BENCH_cluster.json"
        rc = main([
            "bench", "cluster", "--trace", "churn", "-n", "6000",
            "--window", "500", "-o", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == BENCH_RESULT_SCHEMA
        assert doc["target"] == "cluster"
        assert set(doc["results"]["scenarios"]) == {"R1", "R2"}
        printed = capsys.readouterr().out
        assert "cluster bench" in printed and f"wrote {out}" in printed
