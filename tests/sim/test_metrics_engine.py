"""MetricsCollector, engine, runner, and trace-I/O tests."""

from __future__ import annotations

import pytest

from repro.cache.lru import LRUCache
from repro.sim.engine import simulate
from repro.sim.metrics import MetricsCollector
from repro.sim.request import Request, Trace
from repro.sim.runner import format_table, run_grid


class TestMetricsCollector:
    def test_aggregate_counts(self):
        m = MetricsCollector()
        m.record(10, True)
        m.record(10, False)
        m.record(20, False)
        assert m.requests == 3
        assert m.miss_ratio == pytest.approx(2 / 3)
        assert m.byte_miss_ratio == pytest.approx(30 / 40)

    def test_warmup_excluded_from_aggregate(self):
        m = MetricsCollector(warmup=2)
        m.record(10, False)
        m.record(10, False)
        m.record(10, True)
        assert m.requests == 1
        assert m.miss_ratio == 0.0

    def test_interval_series(self):
        m = MetricsCollector(interval=2)
        for hit in [True, False, False, False, True]:
            m.record(10, hit)
        m.flush()
        assert len(m.series) == 3  # 2 + 2 + trailing 1
        assert m.series[0].miss_ratio == 0.5
        assert m.series[1].miss_ratio == 1.0
        assert m.series[2].requests == 1

    def test_interval_series_covers_warmup(self):
        m = MetricsCollector(warmup=4, interval=2)
        for _ in range(6):
            m.record(10, False)
        m.flush()
        assert sum(p.requests for p in m.series) == 6
        assert m.requests == 2

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError):
            MetricsCollector(warmup=-1)


class TestEngine:
    def test_matches_policy_stats(self, zipf_trace):
        res = simulate(LRUCache(20_000), zipf_trace)
        assert res.miss_ratio == pytest.approx(res.policy_obj.stats.miss_ratio)
        assert res.requests == len(zipf_trace)
        assert res.tps > 0

    def test_warmup_changes_ratio(self, zipf_trace):
        cold = simulate(LRUCache(20_000), zipf_trace)
        warm = simulate(LRUCache(20_000), zipf_trace, warmup=len(zipf_trace) // 2)
        # Warm-up removes compulsory-miss noise → lower or equal ratio.
        assert warm.miss_ratio <= cold.miss_ratio + 0.02

    def test_belady_auto_annotates(self, zipf_trace):
        from repro.cache.belady import BeladyCache

        assert not zipf_trace.annotated
        simulate(BeladyCache(10_000), zipf_trace)
        assert zipf_trace.annotated

    def test_future_knowledge_is_declared_not_guessed_from_the_name(self, zipf_trace):
        """LRB learns from the past only and a name is not a declaration:
        neither gets the O(n) annotation pass, and LRB decides the same
        with and without it."""
        from repro.cache.registry import make_policy

        class BeladyInNameOnly(LRUCache):
            name = "LRU-vs-Belady"

        simulate(BeladyInNameOnly(20_000), zipf_trace)
        plain = simulate(make_policy("LRB", 20_000), zipf_trace)
        assert not zipf_trace.annotated
        forced = simulate(make_policy("LRB", 20_000), zipf_trace, needs_future=True)
        assert zipf_trace.annotated
        assert plain.metrics.as_dict() == forced.metrics.as_dict()
        assert plain.byte_miss_ratio == forced.byte_miss_ratio

    def test_memory_measurement(self, tiny_trace):
        res = simulate(LRUCache(1_000), tiny_trace, measure_memory=True)
        assert res.peak_alloc_bytes > 0

    def test_interval_collection(self, zipf_trace):
        res = simulate(LRUCache(20_000), zipf_trace, interval=1_000)
        assert len(res.metrics.series) == len(zipf_trace) // 1_000


class TestRunner:
    def test_grid_shape(self, zipf_trace):
        rows = run_grid(
            {"LRU": LRUCache, "LRU2": LRUCache},
            [zipf_trace],
            [0.1, 0.2],
        )
        assert len(rows) == 4
        assert {r["policy"] for r in rows} == {"LRU", "LRU2"}
        assert {r["cache_fraction"] for r in rows} == {0.1, 0.2}

    def test_per_trace_fractions(self, zipf_trace, tiny_trace):
        rows = run_grid(
            {"LRU": LRUCache},
            [zipf_trace, tiny_trace],
            {"zipfish": [0.1], "tiny": [0.5]},
        )
        assert len(rows) == 2

    def test_format_table_contains_values(self, zipf_trace):
        rows = run_grid({"LRU": LRUCache}, [zipf_trace], [0.1])
        text = format_table(rows)
        assert "LRU" in text and "zipfish" in text


class TestTraceIO:
    def test_lrb_roundtrip(self, tiny_trace, tmp_path):
        from repro.traces.io import read_lrb, write_lrb

        path = tmp_path / "t.tr"
        write_lrb(tiny_trace, path)
        back = read_lrb(path)
        assert len(back) == len(tiny_trace)
        assert all(a == b for a, b in zip(back, tiny_trace))

    def test_csv_roundtrip(self, tiny_trace, tmp_path):
        from repro.traces.io import read_csv, write_csv

        path = tmp_path / "t.csv"
        write_csv(tiny_trace, path)
        back = read_csv(path)
        assert all(a == b for a, b in zip(back, tiny_trace))

    def test_bad_lrb_line_raises(self, tmp_path):
        from repro.traces.io import read_lrb

        path = tmp_path / "bad.tr"
        path.write_text("1 2\n")
        with pytest.raises(ValueError, match="expected"):
            read_lrb(path)

    def test_bad_csv_header_raises(self, tmp_path):
        from repro.traces.io import read_csv

        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)
