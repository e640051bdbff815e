"""Pins for the ``QueueCache`` family beyond ``golden_traces.json``.

``golden/queue_family_pins.json`` was captured with the per-request loop
before every queue policy ran on one kernel (recipe in
``golden/README.md``), and holds two sets:

* ``decisions`` — the hit-sequence SHA-256 plus the six counters of the
  16 registry queue policies no other file pins, and of ``LRU-K-ASCIP``
  and ``LRB-ASCIP``, on CDN-T/W/A at 2 % and 10 %.  LRB and LRB-ASCIP
  (~600 µs per request once trained) run on the first 10 000 CDN-T
  requests at 2 % only, the workload spelled ``CDN-T:10000``: their model
  first trains at request 8 000, so the learned victim is pinned too;
* ``events`` — the SHA-256 of LRU's ``admit`` / ``evict`` record stream
  (``seq`` and ``t`` included, one JSON line per record) on ``CDN-T|0.02``.

Every pin is checked through both drivers: one ``request()`` per element
and ``replay_columns`` over odd-sized chunks.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.cache.lru import LRUCache
from repro.cache.registry import make_policy
from repro.core.enhance import ASCIPLRB, ASCIPLRUK
from repro.obs.probe import Probe
from repro.sim.request import Trace
from tests.sim.test_scip_family_pins import HashSink, _chunked, _columns

PINS = json.loads((pathlib.Path(__file__).parent / "golden" / "queue_family_pins.json").read_text())
FIXTURES = {"CDN-T": "cdn_t_small", "CDN-W": "cdn_w_small", "CDN-A": "cdn_a_small"}
FIELDS = ("hits", "misses", "evictions", "bypasses", "bytes_hit", "bytes_missed")
HYBRIDS = {"LRU-K-ASCIP": ASCIPLRUK, "LRB-ASCIP": ASCIPLRB}


def _trace(workload: str, request) -> Trace:
    """A fixture trace, or its first ``n`` requests for ``NAME:n``."""
    name, _, head = workload.partition(":")
    trace = request.getfixturevalue(FIXTURES[name])
    return Trace(trace.requests[: int(head)], name=workload) if head else trace


@pytest.mark.parametrize("cell", sorted(PINS["decisions"]), ids=lambda c: c.replace("|", "-"))
@pytest.mark.parametrize("driver", ["request", "replay_columns"])
def test_decisions_and_counters(cell, driver, request):
    workload, fraction, name = cell.split("|")
    trace = _trace(workload, request)
    pin = PINS["decisions"][cell]
    capacity = max(int(trace.working_set_size * float(fraction)), 1)
    assert capacity == pin["capacity"], "workload generation drifted"
    policy = HYBRIDS[name](capacity) if name in HYBRIDS else make_policy(name, capacity)
    if driver == "request":
        out = [policy.request(r) for r in trace]
    else:
        out = []
        _chunked(policy, *_columns(trace), 997, out)
    assert hashlib.sha256(bytes(1 if h else 0 for h in out)).hexdigest() == pin["hit_seq_sha256"]
    assert {f: getattr(policy.stats, f) for f in FIELDS} == {f: pin[f] for f in FIELDS}


@pytest.mark.parametrize("driver", ["request", "replay_columns"])
def test_lru_event_stream(cdn_t_small, driver):
    pin = PINS["events"]["CDN-T|0.02|LRU"]
    policy = LRUCache(max(int(cdn_t_small.working_set_size * 0.02), 1))
    sink = HashSink()
    policy.attach_probe(Probe([sink]))
    if driver == "request":
        for r in cdn_t_small:
            policy.request(r)
    else:
        _chunked(policy, *_columns(cdn_t_small), 1_999)
    assert (sink.records, sink.sha.hexdigest()) == (pin["records"], pin["sha256"])
