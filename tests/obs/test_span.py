"""Span/Tracer unit behaviour: topology, sampling, tail-keep, critical
path exactness, forced close, and SLO error-budget arithmetic."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import RingBufferSink
from repro.obs.span import SLO, SLOTracker, TraceConfig, Tracer, critical_path


def _trace_records(sink):
    """Group sink records by trace id."""
    by_trace = {}
    for rec in sink.as_list():
        by_trace.setdefault(rec["trace"], []).append(rec)
    return by_trace


class TestSpanLifecycle:
    def test_root_and_children_share_trace_and_link_parents(self):
        sink = RingBufferSink()
        tracer = Tracer(sinks=[sink])
        root = tracer.start_trace("request", key=7)
        a = root.child("queue_wait", shard=1)
        a.end()
        b = root.child("origin_fetch")
        c = b.child("origin_attempt", attempt=1)
        c.end("timeout")
        b.end("error")
        root.end("error")
        recs = sink.as_list()
        assert len(recs) == 4
        assert len({r["trace"] for r in recs}) == 1
        by_name = {r["name"]: r for r in recs}
        assert by_name["request"]["parent"] is None
        assert by_name["queue_wait"]["parent"] == by_name["request"]["span"]
        assert by_name["origin_attempt"]["parent"] == by_name["origin_fetch"]["span"]
        assert by_name["origin_attempt"]["status"] == "timeout"
        assert by_name["request"]["tags"] == {"key": 7}
        assert all(r["kind"] == "span" for r in recs)
        assert all(r["end_ns"] >= r["start_ns"] for r in recs)

    def test_end_is_idempotent(self):
        tracer = Tracer()
        root = tracer.start_trace()
        root.end("error")
        first_end = root.t_end_ns
        root.end("ok")  # ignored: first end wins
        assert root.status == "error"
        assert root.t_end_ns == first_end
        assert tracer.traces_finished == 1

    def test_child_ended_after_root_counts_as_orphan(self):
        tracer = Tracer()
        root = tracer.start_trace()
        straggler = root.child("queue_wait")
        root.end()
        # Trace not yet finalised: the child is still open.
        assert tracer.traces_finished == 0
        straggler.end()
        assert tracer.traces_finished == 1
        # A *second* end after finalisation is the orphan case.
        late = tracer.start_trace()
        late_child = late.child("x")
        late_child.end()
        late.end()
        ghost = tracer._start_span(late.trace_id, late.span_id, "ghost", None)
        ghost.end()
        assert tracer.orphan_spans == 1

    def test_annotate_merges_tags(self):
        tracer = Tracer()
        root = tracer.start_trace()
        root.annotate(hit=True)
        root.end(shard=2)
        assert root.tags == {"hit": True, "shard": 2}


class TestSampling:
    def test_head_sampling_is_deterministic_and_roughly_proportional(self):
        def kept(seed):
            sink = RingBufferSink()
            tracer = Tracer(
                sinks=[sink],
                config=TraceConfig(sample=0.25, tail_keep=False, seed=seed),
            )
            for _ in range(400):
                tracer.start_trace().end()
            return tracer.traces_kept, [r["trace"] for r in sink.as_list()]

        kept_a, ids_a = kept(3)
        kept_b, ids_b = kept(3)
        assert ids_a == ids_b  # seeded => reproducible
        assert 40 < kept_a < 160  # ~100 expected out of 400
        kept_c, ids_c = kept(4)
        assert ids_a != ids_c  # seed actually matters

    def test_aggregation_sees_unsampled_traces(self):
        tracer = Tracer(config=TraceConfig(sample=0.0, tail_keep=False))
        for _ in range(10):
            root = tracer.start_trace("request")
            root.child("policy").end()
            root.end()
        assert tracer.traces_kept == 0
        breakdown = tracer.stage_breakdown()
        assert breakdown["request"]["count"] == 10
        assert breakdown["policy"]["count"] == 10

    def test_tail_keep_retains_error_and_failover_traces(self):
        sink = RingBufferSink()
        tracer = Tracer(sinks=[sink], config=TraceConfig(sample=0.0))
        ok = tracer.start_trace()
        ok.end()
        bad = tracer.start_trace()
        bad.child("origin_fetch").end("error")
        bad.end()
        hop = tracer.start_trace()
        hop.child("failover_hop", frm="n0", to="n1").end()
        hop.end()
        kept = _trace_records(sink)
        assert ok.trace_id not in kept
        assert bad.trace_id in kept
        assert hop.trace_id in kept
        assert tracer.traces_kept == 2 and tracer.traces_dropped == 1

    def test_tail_latency_threshold_keeps_slow_traces(self):
        sink = RingBufferSink()
        tracer = Tracer(
            sinks=[sink],
            config=TraceConfig(sample=0.0, tail_latency_us=0.001),
        )
        slow = tracer.start_trace()
        slow.end()  # any real duration exceeds a 1ns threshold
        assert slow.trace_id in _trace_records(sink)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(sample=1.5)
        with pytest.raises(ValueError):
            TraceConfig(tail_latency_us=0)


class TestCriticalPath:
    def _rec(self, span, parent, name, start, end, status="ok"):
        return {
            "kind": "span",
            "trace": 0,
            "span": span,
            "parent": parent,
            "name": name,
            "start_ns": start,
            "end_ns": end,
            "status": status,
        }

    def test_segments_sum_exactly_to_root_duration(self):
        records = [
            self._rec(0, None, "request", 0, 1000),
            self._rec(1, 0, "queue_wait", 100, 300),
            self._rec(2, 0, "origin_fetch", 300, 900),
            self._rec(3, 2, "origin_attempt", 350, 850),
        ]
        segments = critical_path(records)
        assert sum(ns for _, ns in segments) == 1000
        totals = {}
        for stage, ns in segments:
            totals[stage] = totals.get(stage, 0) + ns
        # request self time: [0,100) + [900,1000) = 200
        assert totals == {
            "request": 200,
            "queue_wait": 200,
            "origin_fetch": 100,
            "origin_attempt": 500,
        }

    def test_overlapping_siblings_credit_first_starter(self):
        records = [
            self._rec(0, None, "request", 0, 100),
            self._rec(1, 0, "a", 10, 60),
            self._rec(2, 0, "b", 40, 90),
        ]
        segments = critical_path(records)
        assert sum(ns for _, ns in segments) == 100
        totals = {}
        for stage, ns in segments:
            totals[stage] = totals.get(stage, 0) + ns
        assert totals == {"request": 20, "a": 50, "b": 30}

    def test_empty_or_rootless_records(self):
        assert critical_path([]) == []
        assert critical_path([self._rec(1, 0, "child", 0, 10)]) == []

    def test_live_traces_reconcile(self):
        tracer = Tracer()
        root = tracer.start_trace("request")
        q = root.child("queue_wait")
        q.end()
        f = root.child("origin_fetch")
        f.child("origin_attempt").end()
        f.end()
        root.end()
        breakdown = tracer.stage_breakdown()
        crit_total = sum(v["critical_total_us"] for v in breakdown.values())
        root_total = breakdown["request"]["total_us"]
        assert crit_total == pytest.approx(root_total, rel=1e-9)


class TestClose:
    def test_close_flushes_open_spans_as_unclosed(self):
        sink = RingBufferSink()
        tracer = Tracer(sinks=[sink], config=TraceConfig(sample=0.0))
        root = tracer.start_trace()
        root.child("origin_fetch")  # never ended: simulated mid-trace crash
        tracer.close()
        assert tracer.unclosed_spans == 2  # root + child
        kept = _trace_records(sink)
        assert root.trace_id in kept  # forced traces are tail-kept
        statuses = {r["name"]: r["status"] for r in kept[root.trace_id]}
        assert statuses == {"request": "unclosed", "origin_fetch": "unclosed"}

    def test_stats_shape(self):
        tracer = Tracer()
        tracer.start_trace().end()
        st = tracer.stats()
        assert st["traces_started"] == st["traces_finished"] == 1
        assert st["open_traces"] == 0
        assert st["orphan_spans"] == 0


class TestSLOTracker:
    def test_burn_rate_and_budget(self):
        reg = MetricsRegistry()
        slo = SLOTracker([SLO("request", latency_us=100.0, target=0.9)], reg)
        for _ in range(8):
            slo.observe("request", 50.0)
        slo.observe("request", 500.0)  # latency breach
        slo.observe("request", 50.0, ok=False)  # status breach
        out = slo.summary()["request"]
        assert out["total"] == 10 and out["breaches"] == 2
        # breach ratio 0.2 against a 0.1 budget: burning 2x.
        assert out["burn_rate"] == pytest.approx(2.0)
        assert out["budget_remaining"] == pytest.approx(-1.0)
        snap = reg.snapshot()
        assert snap["slo_breaches"]["stage=request"]["value"] == 2

    def test_unknown_stage_ignored_and_duplicates_rejected(self):
        slo = SLOTracker([SLO("request", latency_us=100.0)])
        slo.observe("nonexistent", 1.0)
        assert slo.summary()["request"]["total"] == 0
        with pytest.raises(ValueError):
            SLOTracker([SLO("a", 1.0), SLO("a", 2.0)])

    def test_invalid_objectives(self):
        with pytest.raises(ValueError):
            SLO("a", latency_us=0)
        with pytest.raises(ValueError):
            SLO("a", latency_us=1.0, target=1.0)
