"""The oracle for folding: a registry-only probe rides inside SCIP's kernel
over a chunk's columns, and what it leaves in the registry must be what the
same kernel's per-event emit sites leave there.

Every case runs the same requests twice — once under ``Probe([recorder])``
(all sinks fold, so the chunk-driven kernel counts and reports aggregates
through :meth:`SCIPCache._fold <repro.core.scip.SCIPCache._fold>`) and once
with a ``RingBufferSink`` beside the recorder (a sink that needs records,
which the kernel builds at its emit sites) — and compares the whole
``registry.snapshot()`` and ``probe.seq`` with ``==``: every counter, gauge
and each histogram's buckets/count/sum/min/max.  The two share the
instruments and nothing else; the emit side is anchored to the record
stream pinned before the two drivers became one kernel
(``tests/sim/test_scip_family_pins.py::test_event_stream``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.scip as scip_module
from repro.cache.queue import Node
from repro.core.scip import SCIPCache
from repro.obs.config import ObsConfig
from repro.obs.probe import Probe
from repro.obs.sinks import RegistryRecorder, RingBufferSink
from repro.sim.engine import simulate
from repro.sim.request import Request, Trace


def _observe(keys, sizes, capacity, chunk=None, events=None, bernoulli=False, **scip):
    """Replay under a folding probe and under one that needs records;
    return both ``(snapshot, seq)`` pairs, folded first."""
    results = []
    for needs_records in (False, True):
        recorder = RegistryRecorder()
        ring = RingBufferSink(maxlen=8)
        probe = Probe([recorder, ring] if needs_records else [recorder], events=events)
        policy = SCIPCache(capacity, **scip)
        if bernoulli:
            policy.bandit.mode = "bernoulli"
        policy.attach_probe(probe)
        step = chunk or max(len(keys), 1)
        for lo in range(0, len(keys), step):
            policy.replay_columns(keys[lo:lo + step], sizes[lo:lo + step])
        policy.detach_probe()
        policy.check_invariants()
        if needs_records:
            assert ring.written == probe.seq
        results.append((recorder.registry.snapshot(), probe.seq))
    return results


def _columns(trace):
    return [r.key for r in trace.requests], [r.size for r in trace.requests]


@pytest.mark.parametrize("fraction", [0.02, 0.10])
@pytest.mark.parametrize("chunk", [None, 1999, 337, 1])
def test_golden_trace_in_any_chunking(cdn_t_small, fraction, chunk):
    keys, sizes = _columns(cdn_t_small)
    capacity = max(int(cdn_t_small.working_set_size * fraction), 1)
    folded, emitted = _observe(keys, sizes, capacity, chunk=chunk)
    assert folded == emitted
    snapshot, seq = folded
    assert seq == sum(c["value"] for c in snapshot["events"].values())
    # the golden trace walks the whole per-object machine
    assert {"to=DENIED", "to=DEMOTED", "to=ESCAPED", "to=SUSPECT"} <= set(snapshot["episodes"])
    assert set(snapshot["ghost_hits"]) == {"list=m", "list=l"}


@pytest.mark.parametrize(
    "variant",
    [
        {"per_object": False},
        {"use_hit_token": False},
        {"bernoulli": True},
        {"bernoulli": True, "promote_threshold": 0.95},  # the promotion draw as well
        {"history_fraction": 0.05},
        {"update_interval": 7},
    ],
    ids=lambda v: ",".join(f"{k}={v[k]}" for k in v),
)
def test_policy_variants(cdn_t_small, variant):
    keys, sizes = _columns(cdn_t_small)
    capacity = max(int(cdn_t_small.working_set_size * 0.02), 1)
    folded, emitted = _observe(keys[:8000], sizes[:8000], capacity, chunk=1999, **variant)
    assert folded == emitted
    assert folded[1] > 0


@pytest.mark.parametrize("events", [frozenset({"evict", "ghost_hit"}), frozenset()], ids=["two", "none"])
def test_event_filter_is_honoured_per_event_name(cdn_t_small, events):
    keys, sizes = _columns(cdn_t_small)
    capacity = max(int(cdn_t_small.working_set_size * 0.02), 1)
    folded, emitted = _observe(keys, sizes, capacity, events=events)
    assert folded == emitted
    snapshot, seq = folded
    assert {label.partition("=")[2] for label in snapshot.get("events", {})} == set(events)
    assert (seq > 0) == bool(events)
    # instruments of filtered events never appear
    assert "admit_bytes" not in snapshot and "w_mru" not in snapshot and "lambda" not in snapshot


#: Few keys, sizes redrawn per request: hits that change an object's size
#: (evictions with nothing to admit) and, at the small capacities, objects
#: larger than the cache (bypassed: no ``admit``).
streams = st.lists(st.tuples(st.integers(0, 40), st.integers(1, 700)), min_size=1, max_size=400)


@settings(max_examples=60, deadline=None)
@given(
    streams,
    st.integers(300, 4000),
    st.sampled_from([0.01, 0.5, 32.0]),
    st.sampled_from([0.0, 2.5]),  # 0: every ghost is a long-gap one, the episode machine runs
    st.sampled_from([None, 1, 13]),
    st.integers(0, 2**31 - 1),
)
def test_generated_traces(data, capacity, history_fraction, gap_factor, chunk, seed):
    keys = [k for k, _ in data]
    sizes = [s for _, s in data]
    folded, emitted = _observe(
        keys, sizes, capacity, chunk=chunk, seed=seed, update_interval=16,
        history_fraction=history_fraction, deny_gap_factor=gap_factor,
    )
    assert folded == emitted


def test_generated_traces_reach_the_rare_branches():
    """The property above is only as good as what its traces visit: one
    fixed draw from the same space bypasses, evicts on a hit that grew its
    object, denies and demotes."""
    rng = random.Random(2)
    keys = [rng.randrange(12) for _ in range(400)]
    sizes = [rng.randrange(1, 701) for _ in range(400)]
    scip = {"update_interval": 16, "deny_gap_factor": 0.0, "seed": 2}
    policy = SCIPCache(650, **scip)
    evicting_hits = 0
    for i, (key, size) in enumerate(zip(keys, sizes)):
        evictions = policy.stats.evictions
        if policy.request(Request(i, key, size)) and policy.stats.evictions > evictions:
            evicting_hits += 1
    assert evicting_hits and policy.stats.bypasses and policy.zro_denials and policy.pzro_demotions
    folded, emitted = _observe(keys, sizes, 650, **scip)
    assert folded == emitted
    assert folded[0]["events"]["event=admit"]["value"] == policy.stats.misses - policy.stats.bypasses


@pytest.mark.parametrize("warmup", [0, 1, 2500, 19_999])
def test_through_simulate_with_a_warmup_inside_the_trace(cdn_t_small, warmup):
    capacity = max(int(cdn_t_small.working_set_size * 0.02), 1)
    folded = simulate(SCIPCache(capacity), cdn_t_small, warmup=warmup, obs=ObsConfig())
    emitted = simulate(SCIPCache(capacity), cdn_t_small, warmup=warmup, obs=ObsConfig(ring=8))
    assert folded.obs == emitted.obs
    assert folded.obs["events_emitted"] > 0
    assert (folded.miss_ratio, folded.byte_miss_ratio) == (emitted.miss_ratio, emitted.byte_miss_ratio)


def test_recorder_fold_equals_repeated_write():
    """The aggregate form of every fold the recorder has, against its own
    per-record form."""
    records = [
        {"event": "admit", "size": 10},
        {"event": "admit", "size": 4096},
        {"event": "evict", "size": 7, "hits": 0},
        {"event": "evict", "size": 900, "hits": 3},
        {"event": "ghost_hit", "list": "m"},
        {"event": "ghost_hit", "list": "l"},
        {"event": "ghost_hit", "list": "m"},
        {"event": "episode_transition", "to": "DENIED"},
        {"event": "weight_update", "w_mru": 0.8, "w_lru": 0.2},
        {"event": "weight_update", "w_mru": 0.7, "w_lru": 0.3},
        {"event": "lambda_update", "value": 0.1},
        {"event": "lambda_update", "value": 0.2},
        {"event": "lambda_restart", "value": 0.5},
        {"event": "fetch"},
        {"event": "fetch"},
    ]
    written, folded = RegistryRecorder(), RegistryRecorder()
    for record in records:
        written.write(record)
    folded.fold("admit", 2, {"size": [10, 4096]})
    folded.fold("evict", 2, {"size": [7, 900], "hits": [0, 3]})
    folded.fold("ghost_hit", 3, {"list": {"m": 2, "l": 1}})
    folded.fold("episode_transition", 1, {"to": {"DENIED": 1, "SUSPECT": 0}})
    folded.fold("weight_update", 2, {"w_mru": 0.7, "w_lru": 0.3})
    folded.fold("lambda_update", 2, {"value": 0.2})
    folded.fold("lambda_restart", 1, {"value": 0.5})
    folded.fold("fetch", 2, {})
    assert folded.registry.snapshot() == written.registry.snapshot()
    assert "to=SUSPECT" not in folded.registry.snapshot()["episodes"]


def test_probe_fold_counts_filters_and_rejects_like_emit():
    recorder = RegistryRecorder()
    probe = Probe([recorder], events=frozenset({"admit"}))
    probe.fold("admit", 3, size=[1, 2, 3])
    probe.fold("evict", 2, size=[1, 2], hits=[0, 0])  # filtered out
    probe.fold("admit", 0, size=[])                    # nothing happened
    assert probe.seq == 3
    assert list(recorder.registry.snapshot()) == ["admit_bytes", "events"]
    with pytest.raises(ValueError, match="unknown probe event"):
        probe.fold("no_such_event", 1)


def test_unobserved_replay_still_recycles_its_victims(cdn_t_small, monkeypatch):
    """Observation keeps victims for a window before they join the pool;
    without a probe the loop must go on reusing them at once — a steady
    state that allocates (almost) no node."""
    allocated = []

    class CountedNode(Node):
        __slots__ = ()

        def __init__(self, key, size):
            allocated.append(key)
            super().__init__(key, size)

    monkeypatch.setattr(scip_module, "Node", CountedNode)
    keys, sizes = _columns(Trace(cdn_t_small.requests[:8000]))
    capacity = max(int(cdn_t_small.working_set_size * 0.02), 1)
    policy = SCIPCache(capacity)
    policy.replay_columns(keys, sizes)
    admitted = policy.stats.misses - policy.stats.bypasses
    assert policy.stats.evictions > 1000
    # evictions pay for the inserts that follow: little beyond the first fill allocates
    assert len(allocated) < admitted - 0.95 * policy.stats.evictions
    observed = SCIPCache(capacity)
    observed.attach_probe(Probe([RegistryRecorder()]))
    del allocated[:]
    observed.replay_columns(keys, sizes)
    assert observed.stats.evictions == policy.stats.evictions
    assert len(allocated) < admitted / 2  # victims still come back, a window later
