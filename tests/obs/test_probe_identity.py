"""The observability bargain: tracing changes *what you see*, never *what
the cache does*.

Two halves:

* replay with a probe attached is bit-identical to the committed golden
  traces (same hit/miss SHA the bare replay is pinned to), and
* the disabled path really is disabled — no instance state, zero events
  emitted.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.cache.arc import ARCCache
from repro.cache.lru import LRUCache
from repro.core.scip import SCIPCache
from repro.obs.config import ObsConfig
from repro.obs.probe import Probe
from repro.obs.sinks import RegistryRecorder, RingBufferSink, SnapshotEmitter
from repro.sim.request import Request

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "sim" / "golden" / "golden_traces.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())

POLICIES = {"LRU": LRUCache, "ARC": ARCCache, "SCIP": SCIPCache}


def _hit_seq_sha256(flags) -> str:
    return hashlib.sha256(bytes(bytearray(1 if h else 0 for h in flags))).hexdigest()


@pytest.mark.parametrize("pname", sorted(POLICIES))
def test_replay_with_probe_matches_golden_traces(pname, cdn_t_small):
    """A replay under a probe — LRU's kernel emitting a record per event,
    ARC's per-request template, SCIP's kernel folding for this
    registry-only probe — produces the exact decision sequence the golden
    snapshots pin."""
    trace = cdn_t_small
    gold = GOLDEN[f"CDN-T|0.02|{pname}"]
    policy = POLICIES[pname](gold["capacity"])
    recorder = RegistryRecorder()
    policy.attach_probe(Probe([recorder]))

    out: list = []
    policy.replay(trace.requests, out)

    assert policy.stats.hits == gold["hits"]
    assert policy.stats.misses == gold["misses"]
    assert policy.stats.evictions == gold["evictions"]
    assert repr(policy.stats.miss_ratio) == gold["miss_ratio"]
    assert repr(policy.stats.byte_miss_ratio) == gold["byte_miss_ratio"]
    assert _hit_seq_sha256(out) == gold["hit_seq_sha256"]
    # ...and the probe actually observed the run (ARC carries no hook
    # points of its own — identity is the whole claim there).
    if isinstance(policy, (LRUCache, SCIPCache)):
        snap = recorder.registry.snapshot()
        assert (
            snap["events"]["event=admit"]["value"]
            == policy.stats.misses - policy.stats.bypasses
        )


def test_detached_policy_emits_nothing(cdn_t_small):
    """The no-op path: no probe → no events, no instance attribute, and the
    class-level ``_probe`` stays None for every policy instance."""
    policy = SCIPCache(max(int(cdn_t_small.working_set_size * 0.02), 1))
    recorder = RegistryRecorder()
    probe = Probe([recorder])
    policy.attach_probe(probe)
    policy.detach_probe()
    policy.replay(cdn_t_small.requests[:2000])
    assert len(recorder.registry) == 0
    assert probe.seq == 0
    # Detach resets the whole learner stack, not just the queue.
    assert policy.bandit._probe is None
    assert policy.lr._probe is None


def test_scip_probe_covers_learner_stack(cdn_t_small):
    """One attach wires SCIP + bandit + λ controller; the stream contains
    ghost hits, weight updates and λ updates from a single replay."""
    policy = SCIPCache(max(int(cdn_t_small.working_set_size * 0.02), 1))
    recorder = RegistryRecorder()
    policy.attach_probe(Probe([recorder]))
    policy.replay(cdn_t_small.requests)
    snap = recorder.registry.snapshot()
    events = snap["events"]
    for name in ("event=admit", "event=evict", "event=ghost_hit", "event=weight_update"):
        assert events[name]["value"] > 0, name
    assert snap["w_mru"][""]["value"] + snap["w_lru"][""]["value"] == pytest.approx(1.0)


def test_obs_config_session_wiring(tmp_path, cdn_t_small):
    """ObsConfig.open() orders sinks recorder-first so snapshots always see
    current registry numbers, and exposes ring/jsonl handles."""
    out = tmp_path / "ev.jsonl"
    session = ObsConfig(trace_out=str(out), ring=8, snapshot_every=500).open()
    policy = LRUCache(50_000)
    policy.attach_probe(session.probe)
    policy.replay(cdn_t_small.requests[:3000])
    policy.detach_probe()
    session.close()
    payload = session.snapshot()
    # The JSONL sink additionally receives the forwarded snapshot records.
    assert payload["events_emitted"] > 0
    assert payload["events_written"] == payload["events_emitted"] + payload["snapshots"]
    assert payload["trace_out"] == str(out)
    assert payload["snapshots"] > 0
    assert len(session.ring.as_list()) == 8
    # Each snapshot was taken *after* the recorder saw the same event.
    first_snap = session.snapshots.snapshots[0]
    assert first_snap["registry"]["events"]["event=admit"]["value"] > 0


@pytest.mark.parametrize(
    "make", [lambda: LRUCache(1000), lambda: SCIPCache(1000, update_interval=10)], ids=["LRU", "SCIP"]
)
def test_detach_returns_the_clock_it_lent(make):
    """A probe moved to a second policy is stamped by that policy's clock,
    not by the stopped clock of the one it left — for SCIP that includes the
    λ controller's events, which have no clock of their own — so a
    ``SnapshotEmitter`` on it keeps firing."""
    ring = RingBufferSink(maxlen=1000)
    snapshots = SnapshotEmitter(RegistryRecorder().registry, every=20)
    probe = Probe([ring, snapshots])
    first, second = make(), make()
    first.attach_probe(probe)
    for i in range(5):
        first.request(Request(i, i, 300))
    first.detach_probe()
    assert probe.now is None
    seen = ring.written
    second.attach_probe(probe)
    for i in range(50):
        second.request(Request(i, i % 7, 300))
    moved = ring.as_list()[seen:]
    stamps = [r["t"] for r in moved]
    assert stamps == sorted(stamps) and stamps[0] == 1 and stamps[-1] == second.clock == 50
    if isinstance(second, SCIPCache):
        assert [r["t"] for r in moved if r["event"] == "lambda_update"] == [10, 20, 30, 40, 50]
    assert snapshots.snapshots[-1]["t"] > 20
    second.detach_probe()
    assert probe.now is None


def test_detach_leaves_a_callers_clock_alone():
    probe = Probe([], now=lambda: 42)
    policy = LRUCache(1000)
    policy.attach_probe(probe)
    policy.detach_probe()
    assert probe.now() == 42
