"""Probe event fan-out and the sink set (ring, JSONL, recorder, snapshots)."""

from __future__ import annotations

import gzip
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import PROBE_EVENTS, Probe
from repro.obs.report import read_events
from repro.obs.sinks import (
    EVENT_SCHEMA,
    JSONLSink,
    RegistryRecorder,
    RingBufferSink,
    SnapshotEmitter,
)


class _ListSink:
    def __init__(self):
        self.records = []

    def write(self, record):
        self.records.append(record)


class _PerRecordRecorder:
    """The reference fold: every instrument looked up in the registry on
    every record (what :class:`RegistryRecorder` did before it bound its
    instruments once per event type)."""

    def __init__(self):
        self.registry = MetricsRegistry()

    def write(self, record):
        reg = self.registry
        event = record["event"]
        reg.counter("events", event=event).inc()
        if event == "weight_update":
            reg.gauge("w_mru").set(record["w_mru"])
            reg.gauge("w_lru").set(record["w_lru"])
        elif event == "lambda_update":
            reg.gauge("lambda").set(record["value"])
        elif event == "lambda_restart":
            reg.counter("lambda_restarts").inc()
            reg.gauge("lambda").set(record["value"])
        elif event == "ghost_hit":
            reg.counter("ghost_hits", list=record["list"]).inc()
        elif event == "episode_transition":
            reg.counter("episodes", to=record["to"]).inc()
        elif event == "admit":
            reg.histogram("admit_bytes").observe(record["size"])
        elif event == "evict":
            reg.histogram("evict_bytes").observe(record["size"])
            reg.histogram("evict_tenure_hits").observe(record["hits"])


class TestProbe:
    def test_unknown_event_raises(self):
        probe = Probe([_ListSink()])
        with pytest.raises(ValueError):
            probe.emit("not_an_event")

    def test_unknown_filter_event_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Probe([], events=frozenset({"evict", "bogus"}))

    def test_event_filter_drops_before_record_build(self):
        sink = _ListSink()
        probe = Probe([sink], events=frozenset({"evict"}))
        probe.emit("admit", key=1, size=2)
        probe.emit("evict", key=1, size=2)
        assert [r["event"] for r in sink.records] == ["evict"]
        # Dropped emissions don't consume sequence numbers.
        assert sink.records[0]["seq"] == 1

    def test_seq_and_clock_stamping(self):
        sink = _ListSink()
        clock = [0]
        probe = Probe([sink], now=lambda: clock[0])
        clock[0] = 7
        probe.emit("admit", key=1, size=2)
        clock[0] = 9
        probe.emit("evict", key=1, size=2, hits=0)
        assert [(r["seq"], r["t"]) for r in sink.records] == [(1, 7), (2, 9)]

    def test_explicit_t_wins_over_clock(self):
        sink = _ListSink()
        probe = Probe([sink], now=lambda: 99)
        probe.emit("snapshot", t=5)
        assert sink.records[0]["t"] == 5

    def test_fanout_order_is_registration_order(self):
        order = []

        class Tagger:
            def __init__(self, tag):
                self.tag = tag

            def write(self, record):
                order.append(self.tag)

        probe = Probe([Tagger("a"), Tagger("b")])
        probe.emit("admit", key=1, size=2)
        assert order == ["a", "b"]

    def test_vocabulary_covers_hook_points(self):
        assert {
            "admit",
            "evict",
            "ghost_hit",
            "episode_transition",
            "weight_update",
            "lambda_update",
            "lambda_restart",
            "snapshot",
        } <= PROBE_EVENTS


class TestRingBufferSink:
    def test_keeps_last_n(self):
        ring = RingBufferSink(maxlen=3)
        for i in range(5):
            ring.write({"seq": i})
        assert [r["seq"] for r in ring.as_list()] == [2, 3, 4]
        assert ring.written == 5

    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            RingBufferSink(maxlen=0)


class TestJSONLSink:
    def test_roundtrip_with_schema_header(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        sink = JSONLSink(str(path))
        sink.write({"seq": 1, "event": "admit", "key": 5, "size": 10})
        sink.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0] == {"event": "schema", "version": EVENT_SCHEMA}
        assert lines[1]["event"] == "admit"
        # read_events swallows the schema line.
        assert [r["event"] for r in read_events(str(path))] == ["admit"]

    def test_gz_suffix_compresses(self, tmp_path):
        path = tmp_path / "ev.jsonl.gz"
        sink = JSONLSink(str(path))
        sink.write({"seq": 1, "event": "evict", "key": 5, "size": 10, "hits": 0})
        sink.close()
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            assert json.loads(fh.readline())["event"] == "schema"
        assert [r["event"] for r in read_events(str(path))] == ["evict"]

    def test_future_schema_rejected_by_reader(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text(
            json.dumps({"event": "schema", "version": EVENT_SCHEMA + 1}) + "\n"
        )
        with pytest.raises(ValueError, match="unsupported"):
            list(read_events(str(path)))

    def test_close_is_idempotent(self, tmp_path):
        sink = JSONLSink(str(tmp_path / "ev.jsonl"))
        sink.close()
        sink.close()


class TestRegistryRecorder:
    def test_folds_learner_events(self):
        rec = RegistryRecorder()
        rec.write({"event": "weight_update", "w_mru": 0.7, "w_lru": 0.3})
        rec.write({"event": "lambda_update", "value": 0.2})
        rec.write({"event": "lambda_restart", "value": 0.05})
        rec.write({"event": "ghost_hit", "list": "m"})
        rec.write({"event": "episode_transition", "to": "DENIED"})
        rec.write({"event": "admit", "size": 100})
        rec.write({"event": "evict", "size": 100, "hits": 2})
        snap = rec.registry.snapshot()
        assert snap["w_mru"][""]["value"] == 0.7
        assert snap["lambda"][""]["value"] == 0.05
        assert snap["lambda_restarts"][""]["value"] == 1
        assert snap["ghost_hits"]["list=m"]["value"] == 1
        assert snap["episodes"]["to=DENIED"]["value"] == 1
        assert snap["admit_bytes"][""]["count"] == 1
        assert snap["evict_tenure_hits"][""]["sum"] == 2
        assert snap["events"]["event=admit"]["value"] == 1

    def test_snapshot_matches_the_per_record_fold_on_a_scip_replay(self):
        """30 k probed SCIP requests through both folds: same instruments,
        same values, key for key."""
        from repro.core.scip import SCIPCache
        from repro.traces.cdn import make_workload

        trace = make_workload("CDN-T", n_requests=30_000)
        policy = SCIPCache(max(int(trace.working_set_size * 0.02), 1))
        bound, reference = RegistryRecorder(), _PerRecordRecorder()
        policy.attach_probe(Probe([bound, reference]))
        policy.replay(trace.requests)
        got, want = bound.registry.snapshot(), reference.registry.snapshot()
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name
        assert {"events", "w_mru", "lambda", "ghost_hits", "admit_bytes",
                "evict_tenure_hits"} <= set(got)


class TestSnapshotEmitter:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("events").inc()
        return reg

    def test_emits_on_boundary_crossing(self):
        fwd = _ListSink()
        emitter = SnapshotEmitter(self._registry(), every=100, forward=fwd)
        emitter.write({"event": "admit", "t": 99})
        assert emitter.snapshots == []
        emitter.write({"event": "admit", "t": 100})
        assert len(emitter.snapshots) == 1
        assert fwd.records[0]["event"] == "snapshot"
        assert fwd.records[0]["t"] == 100

    def test_multiple_crossed_boundaries_collapse(self):
        emitter = SnapshotEmitter(self._registry(), every=100)
        emitter.write({"event": "admit", "t": 950})
        assert len(emitter.snapshots) == 1
        # Next boundary is now past 950, not a burst of catch-up snapshots.
        emitter.write({"event": "admit", "t": 999})
        assert len(emitter.snapshots) == 1
        emitter.write({"event": "admit", "t": 1000})
        assert len(emitter.snapshots) == 2

    def test_clockless_records_ignored(self):
        emitter = SnapshotEmitter(self._registry(), every=1)
        emitter.write({"event": "weight_update"})
        assert emitter.snapshots == []

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SnapshotEmitter(self._registry(), every=0)
