"""Pins for the SCIP family beyond ``golden_traces.json``.

``golden/scip_family_pins.json`` was captured with the per-request loop
before SCIP's per-request and bulk drivers became one kernel (recipe in
``golden/README.md``), and holds three sets:

* the Figure 12 hybrids ``LRU-K-SCIP`` and ``LRB-SCIP`` — decision-stream
  SHA-256 plus the six counters on CDN-T/W/A at 2 % and 10 %;
* the same for ``SCIP`` and ``SCI`` with ``bandit.mode = "bernoulli"``, the
  mode whose promotion and ``SELECT`` draw from the RNG;
* the SHA-256 of SCIP's full per-event record stream (``seq`` and ``t``
  included, one JSON line per record) on ``CDN-T|0.02``, once with the
  probe on the whole learner stack and once on the bandit alone.

Every pin is checked through both drivers: one ``request()`` per element
and ``replay_columns`` over chunks.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.core.enhance import SCIPLRB, SCIPLRUK
from repro.core.sci import SCICache
from repro.core.scip import SCIPCache
from repro.obs.probe import Probe

PINS = json.loads((pathlib.Path(__file__).parent / "golden" / "scip_family_pins.json").read_text())
FIXTURES = {"CDN-T": "cdn_t_small", "CDN-W": "cdn_w_small", "CDN-A": "cdn_a_small"}
FIELDS = ("hits", "misses", "evictions", "bypasses", "bytes_hit", "bytes_missed")


def _bernoulli(cls):
    def make(capacity):
        policy = cls(capacity)
        policy.bandit.mode = "bernoulli"
        return policy

    return make


POLICIES = {
    "LRU-K-SCIP": SCIPLRUK,
    "LRB-SCIP": SCIPLRB,
    "SCIP-bernoulli": _bernoulli(SCIPCache),
    "SCI-bernoulli": _bernoulli(SCICache),
}


def _columns(trace):
    return [r.key for r in trace.requests], [r.size for r in trace.requests]


def _chunked(policy, keys, sizes, chunk, out=None):
    for lo in range(0, len(keys), chunk):
        policy.replay_columns(keys[lo : lo + chunk], sizes[lo : lo + chunk], out)


class HashSink:
    """A sink that needs every record: hashes them as JSON lines."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.records = 0

    def write(self, record: dict) -> None:
        self.sha.update(json.dumps(record).encode() + b"\n")
        self.records += 1


@pytest.mark.parametrize("cell", sorted(PINS["decisions"]), ids=lambda c: c.replace("|", "-"))
@pytest.mark.parametrize("driver", ["request", "replay_columns"])
def test_decisions_and_counters(cell, driver, request):
    workload, fraction, name = cell.split("|")
    trace = request.getfixturevalue(FIXTURES[workload])
    pin = PINS["decisions"][cell]
    capacity = max(int(trace.working_set_size * float(fraction)), 1)
    assert capacity == pin["capacity"], "workload generation drifted"
    policy = POLICIES[name](capacity)
    if driver == "request":
        out = [policy.request(r) for r in trace]
    else:
        out = []
        _chunked(policy, *_columns(trace), 4_999, out)
    assert hashlib.sha256(bytes(1 if h else 0 for h in out)).hexdigest() == pin["hit_seq_sha256"]
    assert {f: getattr(policy.stats, f) for f in FIELDS} == {f: pin[f] for f in FIELDS}


@pytest.mark.parametrize("where", ["stack", "bandit"])
@pytest.mark.parametrize("driver", ["request", "replay_columns"])
def test_event_stream(cdn_t_small, where, driver):
    pin = PINS["events"][f"CDN-T|0.02|{where}"]
    policy = SCIPCache(max(int(cdn_t_small.working_set_size * 0.02), 1))
    sink = HashSink()
    if where == "stack":
        policy.attach_probe(Probe([sink]))
    else:
        policy.bandit.attach_probe(Probe([sink], now=lambda: policy.clock))
    if driver == "request":
        for r in cdn_t_small:
            policy.request(r)
    else:
        _chunked(policy, *_columns(cdn_t_small), 1_999)
    assert (sink.records, sink.sha.hexdigest()) == (pin["records"], pin["sha256"])
