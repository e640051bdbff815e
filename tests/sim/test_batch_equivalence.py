"""Bit-exactness harness: the chunk-streaming driver vs the rich engine.

The dedicated cores in :mod:`repro.sim.batch` are an independent
reimplementation of LRU over structure-of-arrays chunks, plus SCIP's kernel
driven by a chunk's columns (its row holds the registry ``SCIPCache``);
nothing about them is allowed to be "approximately" right.  The oracle is
the rich policy driven one ``request()`` call at a time — never ``replay``,
which for LRU and SCIP is itself an inlined loop — and, for SCIP, whose
per-request and bulk drivers run one kernel, the naive transcription
:class:`tests.core.scip_reference.ReferenceSCIP`, which shares no code with
it.  For the five names that have ever had a dedicated core
(:data:`STREAMED`; FIFO, CLOCK and SIEVE now stream through their registry
policy's ``replay_columns``, and stay here so that path is held to the same
pins) this harness replays the same trace through both and asserts
**identical**:

* per-request hit/miss decision streams,
* aggregate stats (hits, misses, evictions, bypasses, byte counters),
* used bytes, clock and resident-object count,
* final resident sets, in recency / insertion / ring *order*,
* for SCIP the whole learner state as well (:func:`scip_state`): per-node
  flags/stamps/tokens in queue order, both history lists in FIFO order,
  the ω pair, λ and its controller, the diagnostics and the RNG state,

across golden CDN workloads and seeded random traces (including
inconsistent-size traces that force the LRU core's spill-to-rich fallback
and that the others replay natively), at multiple cache sizes, and — the
batch-specific axis — at multiple chunk sizes, which must not change a
single decision.  :class:`TestEveryPolicyStreams` then holds the driver to
the same standard for every name in the registry, dedicated core or not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.clock import ClockCache
from repro.cache.fifo import FIFOCache
from repro.cache.lru import LRUCache
from repro.cache.registry import available_policies, make_policy
from repro.cache.sieve import SieveCache
from repro.core.enhance import SCIPLRUK
from repro.core.sci import SCICache
from repro.core.scip import SCIPCache
from repro.obs.probe import Probe
from repro.obs.sinks import JSONLSink, RegistryRecorder, RingBufferSink, SnapshotEmitter
from repro.sim.batch import (
    BATCH_POLICIES,
    BatchLRU,
    batch_replay,
    batch_supported,
    make_batch_policy,
    simulate_batch,
)
from repro.sim.engine import simulate
from repro.sim.metrics import MetricsCollector
from repro.sim.request import requests_from_arrays
from repro.traces.cdn import make_workload
from tests.core.scip_reference import ReferenceSCIP, assert_same_state, scip_state
from tests.sim.test_golden_traces import GOLDEN as GOLDEN_SHA
from tests.sim.test_golden_traces import _hit_seq_sha256
from tests.sim.test_scip_family_pins import PINS as SCIP_FAMILY

RICH = {
    "LRU": LRUCache,
    "FIFO": FIFOCache,
    "CLOCK": ClockCache,
    "SIEVE": SieveCache,
    "SCIP": SCIPCache,
}

#: What ``make_batch_policy`` / the driver is pinned for in this file: the
#: two dedicated cores and the three names whose cores were deleted.
STREAMED = sorted(RICH)

_STAT_FIELDS = ("hits", "misses", "evictions", "bypasses", "bytes_hit", "bytes_missed")


def _resident(policy):
    if hasattr(policy, "resident_keys"):
        return policy.resident_keys()
    ring = getattr(policy, "ring", None)
    if ring is None:
        ring = getattr(policy, "queue", None)
    return list(ring.keys())


def assert_same_end_state(name, rich, batch):
    for field in _STAT_FIELDS:
        assert getattr(rich.stats, field) == getattr(batch.stats, field), (
            f"{name}: stats.{field} rich={getattr(rich.stats, field)} "
            f"batch={getattr(batch.stats, field)}"
        )
    assert rich.used == batch.used
    assert rich.clock == batch.clock
    assert len(rich) == len(batch)
    assert _resident(rich) == _resident(batch), f"{name}: resident order differs"
    if name == "SCIP":
        assert scip_state(batch) == scip_state(rich)
        batch.check_invariants()


def replay_chunks(core, keys, sizes, chunk, out):
    """Feed ``core`` the columns ``chunk`` requests at a time, as the driver
    does for an array core and a registry policy alike."""
    chunks = (
        (None, keys[lo : lo + chunk], sizes[lo : lo + chunk])  # no entry reads the times
        for lo in range(0, len(keys), chunk)
    )
    batch_replay(core, chunks, core.capacity, out=out)


def assert_equivalent(name, keys, sizes, cap, chunk):
    """Replay (keys, sizes) through both engines; assert bit-exactness."""
    keys = np.asarray(keys, np.int64)
    sizes = np.asarray(sizes, np.int64)

    rich = RICH[name](cap)
    out_rich = [rich.request(req) for req in requests_from_arrays(keys, sizes)]

    batch = make_batch_policy(name, cap)
    out_batch: list = []
    replay_chunks(batch, keys, sizes, chunk, out_batch)

    assert out_rich == out_batch, f"{name}: decision streams differ"
    assert_same_end_state(name, rich, batch)
    if name == "SCIP":
        oracle = ReferenceSCIP(cap)
        assert [oracle.request(k, s) for k, s in zip(keys.tolist(), sizes.tolist())] == out_batch
        assert_same_state(batch, oracle)
    return batch


def _random_trace(seed):
    """Seeded random trace; every third seed has inconsistent sizes, which
    the LRU core must answer by spilling to the rich policy."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(200, 2500))
    nkeys = int(rng.integers(1, max(m // 2, 2)))
    keys = rng.integers(0, nkeys, m).astype(np.int64)
    if seed % 3 == 2:
        sizes = rng.integers(1, 5000, m).astype(np.int64)
    else:
        sizes = rng.integers(1, 5000, nkeys).astype(np.int64)[keys]
    return keys, sizes


def _columns(workload):
    trace = make_workload(workload, n_requests=15_000, seed=3)
    keys = np.array([r.key for r in trace.requests], np.int64)
    sizes = np.array([r.size for r in trace.requests], np.int64)
    wss = int(sizes[np.unique(keys, return_index=True)[1]].sum())
    return keys, sizes, wss


@pytest.fixture(scope="module")
def golden():
    return _columns("CDN-T")


@pytest.fixture(scope="module")
def golden_w():
    return _columns("CDN-W")


class TestGoldenTraces:
    @pytest.mark.parametrize("name", STREAMED)
    @pytest.mark.parametrize("cap_div", [50, 8])
    @pytest.mark.parametrize("chunk", [1 << 20, 337])
    def test_golden_bit_exact(self, golden, name, cap_div, chunk):
        keys, sizes, wss = golden
        assert_equivalent(name, keys, sizes, max(wss // cap_div, 1), chunk)

    @pytest.mark.parametrize("cap_div", [50, 8])
    @pytest.mark.parametrize("chunk", [1 << 20, 337])
    def test_scip_bit_exact_on_cdn_w(self, golden_w, cap_div, chunk):
        keys, sizes, wss = golden_w
        assert_equivalent("SCIP", keys, sizes, max(wss // cap_div, 1), chunk)

    @pytest.mark.parametrize("name", STREAMED)
    def test_chunk_size_changes_nothing(self, golden, name):
        # The batch axis that has no rich-engine counterpart: any chunking
        # must produce the identical engine end state.
        keys, sizes, wss = golden
        cap = max(wss // 10, 1)
        reference = None
        for chunk in (1 << 20, 1999, 613):
            out: list = []
            core = make_batch_policy(name, cap)
            replay_chunks(core, keys, sizes, chunk, out)
            state = (out, core.used, _resident(core), core.stats.evictions)
            if reference is None:
                reference = state
            else:
                assert state == reference, f"{name}: chunk={chunk} diverged"


class TestRandomTraces:
    @pytest.mark.parametrize("name", STREAMED)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_bit_exact(self, name, seed):
        keys, sizes = _random_trace(seed)
        tot = int(sizes.sum())
        for cap in (1, max(tot // 20, 1), max(tot // 3, 1), 2 * tot):
            assert_equivalent(name, keys, sizes, cap, 337)

    @pytest.mark.parametrize("name", STREAMED)
    def test_inconsistent_sizes_spill_and_stay_exact(self, name):
        keys, sizes = _random_trace(2)  # seed 2: per-request random sizes
        core = assert_equivalent(name, keys, sizes, max(int(sizes.sum()) // 8, 1), 337)
        if name == "LRU":
            # The slot model assumes stable per-key sizes and must answer
            # violations by spilling to the rich policy; the others replay
            # per request and need no fallback.
            assert core.spilled, "inconsistent sizes must trip the rich fallback"
        else:
            assert not getattr(core, "spilled", False)

    @pytest.mark.parametrize("name", STREAMED)
    def test_empty_and_single_request(self, name):
        assert_equivalent(name, [], [], 100, 1 << 20)
        assert_equivalent(name, [5], [10], 100, 1 << 20)
        assert_equivalent(name, [5], [1000], 100, 1 << 20)  # bypass-sized


class TestCompactionStress:
    @pytest.mark.parametrize("name", ["LRU"])
    def test_many_compactions_stay_exact(self, name, monkeypatch):
        # Shrink the dead-slot slack so compaction (slot renumbering + map
        # rebuild) fires many times within one small trace.
        monkeypatch.setattr(BatchLRU, "_COMPACT_SLACK", 256)
        rng = np.random.default_rng(99)
        m = 6_000
        keys = rng.integers(0, 300, m).astype(np.int64)
        sizes = rng.integers(1, 50, 300).astype(np.int64)[keys]
        core = assert_equivalent(name, keys, sizes, int(sizes.sum()) // 6, 449)
        assert core.compactions > 1


class TestSimulateBatch:
    def test_simulate_batch_matches_rich_simulate(self):
        trace = make_workload("CDN-T", n_requests=8_000, seed=5)
        cap = max(int(trace.working_set_size * 0.05), 1)
        for name in STREAMED:
            rich = simulate(RICH[name](cap), trace)
            batch = simulate_batch(name, trace, cap)
            assert batch.miss_ratio == rich.miss_ratio, name
            assert batch.byte_miss_ratio == rich.byte_miss_ratio, name

    def test_warmup_splits_mid_chunk(self):
        trace = make_workload("CDN-T", n_requests=6_000, seed=5)
        cap = max(int(trace.working_set_size * 0.05), 1)
        warm = len(trace) // 3
        rich = simulate(LRUCache(cap), trace, warmup=warm)
        batch = simulate_batch("LRU", trace, cap, warmup=warm)
        assert batch.miss_ratio == rich.miss_ratio
        assert batch.byte_miss_ratio == rich.byte_miss_ratio

    def test_batch_replay_from_bin_file(self, tmp_path):
        from repro.traces.binfmt import write_bin

        trace = make_workload("CDN-T", n_requests=6_000, seed=5)
        cap = max(int(trace.working_set_size * 0.05), 1)
        path = tmp_path / "t.bin"
        write_bin(trace, path)
        out_mem: list = []
        out_file: list = []
        batch_replay("LRU", trace, cap, out=out_mem)
        batch_replay("LRU", str(path), cap, chunk_size=1024, out=out_file)
        assert out_mem == out_file

    def test_batch_supported_matches_registry(self):
        # a dedicated core stays only where the benchmark ledger replays it
        assert BATCH_POLICIES == {"LRU": BatchLRU, "SCIP": SCIPCache}
        assert batch_supported("LRU") and batch_supported("SCIP")
        for name in ("FIFO", "CLOCK", "SIEVE", "ARC"):
            assert not batch_supported(name)
            assert type(make_batch_policy(name, 100)) is type(make_policy(name, 100))

    @pytest.mark.parametrize("warmup", [0, 1_500, 2_000, 2_001, 6_000, 6_005])
    def test_scip_warmup_inside_at_and_past_a_chunk_boundary(self, tmp_path, warmup):
        from repro.traces.binfmt import read_bin, write_bin

        trace = make_workload("CDN-T", n_requests=6_000, seed=5)
        cap = max(int(trace.working_set_size * 0.05), 1)
        path = tmp_path / "t.bin"
        write_bin(trace, path)
        rich = simulate(SCIPCache(cap), read_bin(path), warmup=warmup, fast=False)
        batch = simulate_batch("SCIP", str(path), cap, warmup=warmup, chunk_size=1_000)
        assert batch.requests == rich.requests
        for field in ("requests", "hits", "misses", "bytes_missed", "bytes_requested"):
            assert getattr(batch.metrics, field) == getattr(rich.metrics, field), field
        assert batch.miss_ratio == rich.miss_ratio
        assert batch.byte_miss_ratio == rich.byte_miss_ratio
        # the finished core is the policy itself, diagnostics included
        assert isinstance(batch.policy_obj, SCIPCache)
        batch.policy_obj.check_invariants()
        assert list(batch.policy_obj.export_residents()) == list(
            rich.policy_obj.export_residents()
        )


    def test_scip_mrc_sweep_equals_per_size_rich_replays(self, tmp_path):
        from repro.sim.parallel import mrc_sweep
        from repro.traces.binfmt import read_bin, write_bin

        path = tmp_path / "t.bin"
        write_bin(make_workload("CDN-T", n_requests=20_000, seed=7), path)
        rows = mrc_sweep(path, "SCIP", fractions=(0.01, 0.05, 0.2), max_workers=2)
        assert len(rows) == 3
        trace = read_bin(path)
        for row in rows:
            rich = simulate(make_policy("SCIP", row["cache_bytes"]), trace, fast=False)
            st = rich.policy_obj.stats
            assert (row["hits"], row["misses"], row["evictions"]) == (
                st.hits, st.misses, st.evictions
            ), row["cache_fraction"]
            assert not row["spilled"]


_ORACLES = ("Belady", "Belady-Size")


class TestEveryPolicyStreams:
    """``simulate_batch(name, path, cap)`` == ``simulate(make_policy(name,
    cap), read_bin(path))`` for every registry name: the decision stream,
    the policy's counters and the result's ratios, whatever the chunking
    and wherever the warm-up boundary falls in it."""

    N = 20_000

    @pytest.fixture(scope="class")
    def streamed(self, tmp_path_factory):
        from repro.traces.binfmt import read_bin, write_bin

        path = str(tmp_path_factory.mktemp("stream") / "t.bin")
        write_bin(make_workload("CDN-T", n_requests=self.N, seed=11), path)
        trace = read_bin(path)
        return path, trace, max(int(trace.working_set_size * 0.05), 1)

    @staticmethod
    def _assert_streams_exactly(name, path, trace, cap, chunks):
        """Decisions and the six counters of ``batch_replay`` at each chunk
        size ``==`` one ``request()`` per element; returns the decisions."""
        ref = make_policy(name, cap)
        want = [ref.request(req) for req in trace.requests]
        for chunk in chunks:
            got: list = []
            core = batch_replay(name, path, cap, chunk_size=chunk, out=got)
            assert got == want, f"{name}: decisions differ at cap={cap} chunk={chunk}"
            for field in _STAT_FIELDS:
                assert getattr(core.stats, field) == getattr(ref.stats, field), (name, cap, field)
            assert core.stats.hits + core.stats.misses == len(trace)
            assert 0 <= core.used <= cap
        return want

    @pytest.mark.parametrize("name", [n for n in available_policies() if n not in _ORACLES])
    def test_stream_equals_materialise(self, streamed, name):
        path, trace, cap = streamed
        want = self._assert_streams_exactly(name, path, trace, cap, (1_000, 1 << 20))
        # warm-up inside a chunk, at a chunk boundary, past the end: the
        # collector's own per-request contract over the oracle's decisions
        for warmup in (2_500, 3_000, len(trace) + 5):
            expect = MetricsCollector(warmup=warmup)
            for req, hit in zip(trace.requests, want):
                expect.record(req.size, hit)
            batch = simulate_batch(name, path, cap, warmup=warmup, chunk_size=1_000)
            assert batch.requests == len(trace)
            assert batch.metrics.as_dict() == expect.as_dict(), (name, warmup)
            assert batch.metrics.bytes_missed == expect.bytes_missed
            assert batch.metrics.bytes_requested == expect.bytes_requested
        rich = simulate(make_policy(name, cap), trace, warmup=2_500)
        batch = simulate_batch(name, path, cap, warmup=2_500, chunk_size=1_000)
        for field in ("policy", "cache_bytes", "requests", "miss_ratio", "byte_miss_ratio",
                      "metadata_bytes"):
            assert getattr(batch, field) == getattr(rich, field), (name, field)

    @pytest.fixture(scope="class")
    def hostile(self, tmp_path_factory):
        from repro.sim.request import Trace
        from repro.traces.binfmt import read_bin, write_bin

        tmp = tmp_path_factory.mktemp("hostile")
        path, empty = str(tmp / "t.bin"), str(tmp / "empty.bin")
        write_bin(make_workload("CDN-T", n_requests=2_000, seed=11), path)  # keeps LRB cheap
        write_bin(Trace([], name="empty"), empty)
        return path, read_bin(path), empty

    @pytest.mark.parametrize("name", [n for n in available_policies() if n not in _ORACLES])
    def test_hostile_shapes_stay_exact(self, hostile, name):
        """Nothing fits, almost nothing fits, one-request chunks, no requests
        at all: no shape raises, and each decides as one ``request()`` per
        element does."""
        path, trace, empty = hostile
        largest = max(req.size for req in trace.requests)
        five_percent = max(int(trace.working_set_size * 0.05), 1)
        for cap, chunk in ((1, 1_000), (largest - 1, 1_000), (five_percent, 1)):
            self._assert_streams_exactly(name, path, trace, cap, (chunk,))
        got: list = []
        core = batch_replay(name, empty, 1, chunk_size=1, out=got)
        assert got == [] and core.stats.requests == 0 and core.used == 0
        res = simulate_batch(name, empty, five_percent)
        assert (res.requests, res.miss_ratio, res.byte_miss_ratio) == (0, 0.0, 0.0)

    @pytest.mark.parametrize("name", _ORACLES)
    def test_an_oracle_is_refused_with_the_reason(self, streamed, name):
        path, _trace, cap = streamed
        with pytest.raises(ValueError, match="reads the future"):
            simulate_batch(name, path, cap)
        with pytest.raises(ValueError, match="needs_future"):
            batch_replay(name, path, cap)

    def test_mrc_sweep_refuses_before_any_worker_starts(self, streamed, monkeypatch):
        from repro.sim import parallel

        def no_pool(*_a, **_k):  # pragma: no cover - the point is it never runs
            raise AssertionError("pool spawned for a name that cannot replay")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(parallel, "_run_mrc_cell", no_pool)
        with pytest.raises(KeyError, match="unknown policy"):
            parallel.mrc_sweep(streamed[0], "NOPE", max_workers=2)
        with pytest.raises(ValueError, match="reads the future"):
            parallel.mrc_sweep(streamed[0], "Belady", max_workers=2)


class TestScipLoop:
    """`SCIPCache.replay_columns` fed directly, on the configurations the
    registry default does not reach, against the reference transcription."""

    @staticmethod
    def _pair(golden, mode="threshold", cap_div=50, **kwargs):
        keys, sizes, wss = golden
        cap = max(wss // cap_div, 1)
        policy = SCIPCache(cap, **kwargs)
        policy.bandit.mode = mode
        return keys.tolist(), sizes.tolist(), policy, ReferenceSCIP(cap, mode=mode, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, mode",
        [
            ({}, "bernoulli"),
            ({"promote_threshold": 0.3, "update_interval": 97}, "bernoulli"),
            ({"per_object": False}, "threshold"),
            ({"per_object": False}, "bernoulli"),
            ({"use_hit_token": False}, "threshold"),
            ({"history_fraction": 0.5, "seed": 11}, "threshold"),
        ],
    )
    @pytest.mark.parametrize("chunk", [1 << 20, 337])
    def test_variants_state_exact(self, golden, kwargs, mode, chunk):
        keys, sizes, loop, oracle = self._pair(golden, mode, **kwargs)
        want = [oracle.request(k, s) for k, s in zip(keys, sizes)]
        got: list = []
        for lo in range(0, len(keys), chunk):
            loop.replay_columns(keys[lo : lo + chunk], sizes[lo : lo + chunk], got)
        assert got == want
        assert_same_state(loop, oracle)
        loop.check_invariants()

    def test_confidence_map_is_pruned_at_the_same_window(self, golden):
        keys, sizes, loop, oracle = self._pair(golden)
        # over the 4 * ghosts + 4096 bound from the first window on
        loop._pzro_conf.update({-k: 1 for k in range(1, 200_000)})
        oracle.conf.update({-k: 1 for k in range(1, 200_000)})
        for k, s in zip(keys, sizes):
            oracle.request(k, s)
        loop.replay_columns(keys, sizes)
        assert len(loop._pzro_conf) < 10_000
        assert_same_state(loop, oracle)

    def test_replay_is_the_same_loop(self, golden):
        keys, sizes, loop, oracle = self._pair(golden)
        want = [oracle.request(k, s) for k, s in zip(keys, sizes)]
        got: list = []
        loop.replay(iter(requests_from_arrays(keys, sizes)), got)  # any iterable, as CachePolicy.replay
        assert got == want
        assert_same_state(loop, oracle)

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            SCIPCache(100).replay_columns([1, 2], [10])


class _WriteOnly:
    """The least a sink can be: it takes records, so it needs them built."""

    def write(self, record: dict) -> None:
        pass


#: where the probe goes (``policy`` is SCIP's own ``attach_probe``: policy,
#: bandit and λ controller get the same object) and the sink added beside
#: the ``RegistryRecorder`` as ``f(registry, tmp_path)``.
_PROBED = [
    pytest.param("policy", None, id="policy"),
    pytest.param("policy", lambda reg, tmp: RingBufferSink(maxlen=64), id="policy+ring"),
    pytest.param("policy", lambda reg, tmp: JSONLSink(str(tmp / "ev.jsonl")), id="policy+jsonl"),
    pytest.param("policy", lambda reg, tmp: SnapshotEmitter(reg, every=1000), id="policy+snapshots"),
    pytest.param("policy", lambda reg, tmp: _WriteOnly(), id="policy+write-only"),
    pytest.param("bandit", None, id="bandit"),
    pytest.param("lr", None, id="lr"),
    pytest.param("three-probes", None, id="three-probes"),
]


class TestHookPathGuards:
    """Subclassed and probed SCIPs run the same kernel as a bare one: what
    rides on it — SCI's promotion, LRU-K's victims, a probe of any kind —
    decides as the pins say, through ``replay`` and through
    ``replay_columns``."""

    @pytest.mark.parametrize("entry", ["replay", "replay_columns"])
    def test_sci_keeps_its_own_promotion(self, cdn_t_small, entry):
        gold = GOLDEN_SHA["CDN-T|0.02|SCI"]
        policy = SCICache(gold["capacity"])
        out: list = []
        if entry == "replay":
            policy.replay(cdn_t_small.requests, out)
        else:
            requests = cdn_t_small.requests
            policy.replay_columns([r.key for r in requests], [r.size for r in requests], out)
        assert _hit_seq_sha256(out) == gold["hit_seq_sha256"]
        assert _hit_seq_sha256(out) != GOLDEN_SHA["CDN-T|0.02|SCIP"]["hit_seq_sha256"]

    def test_scip_lruk_keeps_its_victim_selection(self, cdn_t_small):
        pin = SCIP_FAMILY["decisions"]["CDN-T|0.02|LRU-K-SCIP"]
        bulk, loop = SCIPLRUK(pin["capacity"]), SCIPLRUK(pin["capacity"])
        out: list = []
        bulk.replay(cdn_t_small.requests, out)
        assert out == [loop.request(req) for req in cdn_t_small.requests]
        assert _hit_seq_sha256(out) == pin["hit_seq_sha256"]
        assert bulk._atimes == loop._atimes and bulk._atimes  # both drivers record accesses
        assert bulk.resident_keys() == loop.resident_keys()

    @pytest.mark.parametrize("where, extra_sink", _PROBED)
    def test_probed_scip_emits_and_matches_golden(self, cdn_t_small, tmp_path, where, extra_sink):
        """Whatever the probe's sinks and wherever it sits, the decisions are
        the golden ones and the recorder counts every event the probe saw;
        detached, the policy reports to nobody."""
        gold = GOLDEN_SHA["CDN-T|0.02|SCIP"]
        policy = SCIPCache(gold["capacity"])
        recorder = RegistryRecorder()
        sinks = [recorder]
        if extra_sink is not None:
            sinks.append(extra_sink(recorder.registry, tmp_path))
        probe = Probe(sinks)
        assert probe.folds == (extra_sink is None)
        target = {"bandit": policy.bandit, "lr": policy.lr}.get(where, policy)
        target.attach_probe(probe)
        if where == "three-probes":
            policy.bandit.attach_probe(Probe([RegistryRecorder()]))
            policy.lr.attach_probe(Probe([RegistryRecorder()]))
        out: list = []
        policy.replay(cdn_t_small.requests, out)
        probe.close()
        assert _hit_seq_sha256(out) == gold["hit_seq_sha256"]
        assert probe.seq > 0, "the events went unreported"
        events = recorder.registry.snapshot()["events"]
        assert sum(c["value"] for c in events.values()) == probe.seq
        target.detach_probe()
        seq = probe.seq
        policy.replay(cdn_t_small.requests[:2000])
        assert probe.seq == seq


@pytest.mark.slow
class TestFullMatrix:
    """The full pre-merge matrix — hundreds of combos, opt-in via -m slow."""

    @pytest.mark.parametrize("name", STREAMED)
    def test_exhaustive(self, name):
        trace = make_workload("CDN-T", n_requests=30_000, seed=3)
        keys = np.array([r.key for r in trace.requests], np.int64)
        sizes = np.array([r.size for r in trace.requests], np.int64)
        wss = int(sizes[np.unique(keys, return_index=True)[1]].sum())
        for cap_div in (100, 20, 5):
            for chunk in (1 << 20, 1999, 337, 1):
                assert_equivalent(name, keys, sizes, max(wss // cap_div, 1), chunk)
        for seed in range(36):
            rkeys, rsizes = _random_trace(seed)
            tot = int(rsizes.sum())
            for cap in (1, max(tot // 50, 1), max(tot // 8, 1), 2 * tot):
                for chunk in (1 << 20, 337):
                    assert_equivalent(name, rkeys, rsizes, cap, chunk)
