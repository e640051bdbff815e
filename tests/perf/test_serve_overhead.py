"""Bench guards for the span-tracing cost model on the serve path.

Two invariants pinned here:

* the *disabled* path (no tracer attached — one ``is None`` branch per
  hook point) must hold the committed quick-mode throughput floor, and
* an *enabled* tracer, whose aggregation intentionally sees every trace,
  must stay within a bounded multiple of the disabled throughput.

Both are wall-clock throughput measurements, so they are ``slow``-marked
and use best-of-N to ride out runner contention (which only ever slows a
run down, never speeds it up).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.serve.loadgen import run_serve_bench

REPO_ROOT = Path(__file__).resolve().parents[2]
QUICK_BASELINE = REPO_ROOT / "BENCH_serve.quick.json"


def _best_rps(repeats: int, **kwargs) -> float:
    best = 0.0
    for _ in range(repeats):
        doc = run_serve_bench(quick=True, **kwargs)
        best = max(best, doc.results["loadgen"]["throughput_rps"])
    return best


@pytest.mark.slow
class TestServeTracingOverhead:
    def test_disabled_path_holds_committed_throughput_floor(self):
        # The <2% criterion vs the pre-PR baseline was validated when the
        # tracing hooks landed (+0.3% on the full bench); this standing
        # guard uses a 12% floor so runner noise cannot flake it while a
        # real hot-path regression (an always-on span, a per-request
        # allocation) still trips it.
        committed = json.loads(QUICK_BASELINE.read_text())
        baseline_rps = committed["results"]["loadgen"]["throughput_rps"]
        floor = baseline_rps * 0.88
        # Measure under the baseline's own shard count — the committed doc
        # is the CI gate's 2-shard configuration, not the 4-shard default.
        best = _best_rps(3, trace_sample=0.0, n_shards=committed["config"]["n_shards"])
        assert best >= floor, (
            f"tracing-disabled serve throughput {best:,.0f} rps fell below "
            f"{floor:,.0f} (committed {baseline_rps:,.0f} "
            f"- 12%); the disabled path is no longer one branch per hook"
        )

    def test_enabled_tracer_within_bounded_multiple(self, tmp_path):
        # Aggregation sees every trace, so an enabled tracer has real
        # per-request cost; the docs promise "roughly halves throughput".
        # Guard against it degrading to an order-of-magnitude cliff.
        # Single-core runners measure ~5x (no core for the sink to hide
        # on), so the bound sits above that, not at it.
        disabled = _best_rps(2, trace_sample=0.0)
        traced = _best_rps(
            2,
            trace_sample=1.0,
            span_out=str(tmp_path / "spans.jsonl.gz"),
        )
        assert traced >= disabled / 6.5, (
            f"full-sampling tracing costs {disabled / traced:.1f}x "
            f"({disabled:,.0f} -> {traced:,.0f} rps); expected <= 6.5x"
        )
