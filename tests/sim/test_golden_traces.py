"""Golden-trace regression gate: bit-exact hit/miss decisions, forever.

``golden/golden_traces.json`` pins, for every (workload, cache-fraction,
policy) cell, the exact miss ratios (``repr``-exact floats), the raw
counters, and a SHA-256 over the full per-request hit/miss sequence — all
captured from the pre-optimization engine.  Any change to the replay
machinery, the intrusive queue, or a policy's decision logic that alters
*one bit* of behaviour fails these tests.

The suite also pins the two internal equivalences the engine overhaul
relies on:

* the bulk :meth:`~repro.cache.base.CachePolicy.replay` loop is
  decision-identical to the per-request ``request()`` loop, and
* the engine's fast path and rich path report identical aggregate metrics.

Regenerating the snapshots is a deliberate act: delete the JSON and re-run
the generation recipe in ``golden/README.md`` — never "update to match".
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.cache.arc import ARCCache
from repro.cache.lru import LRUCache
from repro.core.sci import SCICache
from repro.core.scip import SCIPCache
from repro.sim.engine import simulate
from tests.core.scip_reference import ReferenceSCIP, assert_same_state

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "golden_traces.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

POLICIES = {"LRU": LRUCache, "ARC": ARCCache, "SCIP": SCIPCache, "SCI": SCICache}
WORKLOADS = ("CDN-T", "CDN-W", "CDN-A")
FRACTIONS = (0.02, 0.10)
FIXTURES = {"CDN-T": "cdn_t_small", "CDN-W": "cdn_w_small", "CDN-A": "cdn_a_small"}


def _hit_seq_sha256(flags) -> str:
    """Hash of the hit/miss sequence, one byte per request (1=hit)."""
    return hashlib.sha256(bytes(bytearray(1 if h else 0 for h in flags))).hexdigest()


def test_golden_file_covers_the_full_grid():
    expected = {
        f"{w}|{frac}|{p}" for w in WORKLOADS for frac in FRACTIONS for p in POLICIES
    }
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=lambda c: c.replace("|", "-"))
def test_golden_cell(cell, request):
    wname, frac, pname = cell.split("|")
    trace = request.getfixturevalue(FIXTURES[wname])
    gold = GOLDEN[cell]
    cap = max(int(trace.working_set_size * float(frac)), 1)
    assert cap == gold["capacity"], "workload generation drifted"

    policy = POLICIES[pname](cap)
    out: list = []
    policy.replay(trace.requests, out)
    st = policy.stats

    assert len(out) == len(trace)
    assert st.hits == gold["hits"]
    assert st.misses == gold["misses"]
    assert st.evictions == gold["evictions"]
    assert repr(st.miss_ratio) == gold["miss_ratio"]
    assert repr(st.byte_miss_ratio) == gold["byte_miss_ratio"]
    assert _hit_seq_sha256(out) == gold["hit_seq_sha256"]


@pytest.mark.parametrize("pname", sorted(POLICIES))
def test_bulk_replay_matches_per_request_loop(pname, cdn_t_small):
    """`replay` (including the inlined LRU fast loop) is observably identical
    to calling ``request()`` once per request.  SCIP and SCI run one kernel
    under both drivers, so both are held to the naive transcription as well,
    decisions and whole state."""
    trace = cdn_t_small
    cap = max(int(trace.working_set_size * 0.02), 1)
    bulk = POLICIES[pname](cap)
    loop = POLICIES[pname](cap)

    out: list = []
    bulk.replay(trace.requests, out)
    seq = [loop.request(r) for r in trace]

    assert [bool(h) for h in out] == seq
    for field in ("hits", "misses", "bytes_hit", "bytes_missed", "evictions", "bypasses"):
        assert getattr(bulk.stats, field) == getattr(loop.stats, field), field
    assert bulk.used == loop.used
    assert bulk.clock == loop.clock
    assert len(bulk) == len(loop)
    if hasattr(bulk, "resident_keys"):  # queue-backed policies expose order too
        assert bulk.resident_keys() == loop.resident_keys()
    if pname in ("SCIP", "SCI"):
        oracle = ReferenceSCIP(cap, always_mru=pname == "SCI")
        assert [oracle.request(r.key, r.size) for r in trace] == seq
        assert_same_state(bulk, oracle)
        assert_same_state(loop, oracle)


@pytest.mark.parametrize("pname", ["LRU", "ARC", "SCIP"])
@pytest.mark.parametrize("warmup", [0, 1000])
def test_engine_fast_and_rich_paths_agree(pname, warmup, cdn_t_small):
    trace = cdn_t_small
    cap = max(int(trace.working_set_size * 0.02), 1)
    fast = simulate(POLICIES[pname](cap), trace, warmup=warmup, fast=True)
    rich = simulate(POLICIES[pname](cap), trace, warmup=warmup, fast=False)

    assert fast.miss_ratio == rich.miss_ratio
    assert fast.byte_miss_ratio == rich.byte_miss_ratio
    assert fast.metrics.requests == rich.metrics.requests == len(trace) - warmup
    assert fast.metrics.hits == rich.metrics.hits
    assert fast.metrics.misses == rich.metrics.misses
    assert fast.metrics.bytes_missed == rich.metrics.bytes_missed
    assert fast.metrics.bytes_requested == rich.metrics.bytes_requested
